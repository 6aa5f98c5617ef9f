"""Block decomposition, block-cut tree, block classes, core, near-leaf blocks."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, NotBlockGraphError
from .graph import (
    Graph,
    compact_ids,
    connected_components,
    missing_clique_pair,
    remove_vertices,
    shape_check,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks and cut-vertices of a graph.

    Blocks are maximal 2-connected components; a bridge edge is a block of
    its own and an isolated vertex forms a singleton block. block_cuts[i]
    lists the cut-vertices inside blocks[i], which together give the
    bipartite incidence of the block-cut tree.
    """

    host: Graph
    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    block_cuts: tuple[tuple[int, ...], ...]

    def blocks_at(self, v: int) -> tuple[int, ...]:
        """Indices of the blocks containing vertex v."""
        return tuple(i for i, b in enumerate(self.blocks) if v in b)


@dataclass(frozen=True)
class BlockClass:
    kind: str  # "isolated", "leaf" or "internal"
    is_edge_block: bool
    cut_vertices_of_block: frozenset[int]


@dataclass(frozen=True)
class NearLeafResult:
    block_index: int
    anchor: int | None
    non_anchor_cut_vertices: tuple[int, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks and articulation vertices by one iterative Hopcroft-Tarjan pass.

    The search runs over vertex indices with list-held discovery times, low
    points and cut flags, and keeps a stack of vertices: when no edge from
    a child's subtree reaches above its parent, the vertices stacked since
    the child, plus the parent, form a block. Blocks are listed by (minimum
    vertex id, sorted vertex tuple), so the output does not depend on the
    traversal.
    """
    ids = compact_ids(g)
    if ids is None:
        adj = [g.neighbors(v) for v in range(g.vertex_count)]
    else:
        pos = {v: k for k, v in enumerate(ids)}
        adj = [[pos[w] for w in g.neighbors(v)] for v in ids]
    n = len(adj)
    disc = [0] * n  # discovery time, from 1; 0 marks an unvisited vertex
    low = [0] * n
    is_cut = [False] * n
    raw_blocks: list[list[int]] = []
    vstack: list[int] = []
    t = 0
    for root in range(n):
        if disc[root]:
            continue
        if not adj[root]:
            raw_blocks.append([root])
            continue
        t += 1
        disc[root] = low[root] = t
        vstack.append(root)
        root_children = 0
        # frames: (vertex, iterator over its neighbours, its vstack position)
        stack = [(root, iter(adj[root]), 0)]
        while stack:
            v, nbrs, _ = stack[-1]
            for w in nbrs:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    stack.append((w, iter(adj[w]), len(vstack)))
                    vstack.append(w)
                    break
                # the tree edge to the parent counts too: it can only pull
                # low[v] down to disc[parent], which still closes a block
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                _, _, at = stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:  # then also low[v] < disc[p]: no block
                    low[p] = low[v]
                elif low[v] >= disc[p]:
                    block = vstack[at:]
                    del vstack[at:]
                    block.append(p)
                    raw_blocks.append(block)
                    if p == root:
                        root_children += 1
                    else:
                        is_cut[p] = True
        is_cut[root] = root_children >= 2
        vstack.clear()

    # sorted lists compare like the (minimum, sorted tuple) key; indices
    # follow id order, so mapping them to ids keeps the order
    ordered = sorted(sorted(b) for b in raw_blocks)
    cut = [v for v in range(n) if is_cut[v]]
    if ids is not None:
        ordered = [[ids[x] for x in b] for b in ordered]
        cut = [ids[x] for x in cut]
    cut_frozen = frozenset(cut)
    blocks = tuple(map(frozenset, ordered))
    block_cuts = tuple(tuple(x for x in b if x in cut_frozen) for b in ordered)
    return BlockDecomposition(g, blocks, cut_frozen, block_cuts)


def classify_blocks(bd: BlockDecomposition) -> list[BlockClass]:
    """One BlockClass per block, aligned with bd.blocks."""
    out = []
    for b, cuts in zip(bd.blocks, bd.block_cuts):
        k = len(cuts)
        kind = "isolated" if k == 0 else ("leaf" if k == 1 else "internal")
        out.append(BlockClass(kind, len(b) == 2, frozenset(cuts)))
    return out


def blocks_are_cliques(bd: BlockDecomposition) -> bool:
    """True iff every block of the decomposition induces a clique.

    Blocks partition the edges and a block on k vertices holds at most
    k(k-1)/2 of them, so all blocks are cliques exactly when these maxima
    add up to the edge count.
    """
    return sum(len(b) * (len(b) - 1) // 2 for b in bd.blocks) == bd.host.edge_count


def is_block_graph(g: Graph) -> bool:
    """True iff every block induces a clique."""
    return blocks_are_cliques(block_decomposition(g))


def checked_block_decomposition(g: Graph) -> BlockDecomposition:
    """Block decomposition of a block graph.

    Raises NotBlockGraphError naming a missing pair of the first block
    that is not a clique.
    """
    bd = block_decomposition(g)
    if not blocks_are_cliques(bd):
        u, v = next(filter(None, (missing_clique_pair(g, b) for b in bd.blocks)))
        raise NotBlockGraphError(f"block containing {u} and {v} is not a clique")
    return bd


def is_pointed(g: Graph) -> bool:
    """True iff every leaf block is an edge block (vacuous without leaf blocks)."""
    bd = block_decomposition(g)
    return all(
        len(b) == 2 for b, cuts in zip(bd.blocks, bd.block_cuts) if len(cuts) == 1
    )


def core(g: Graph) -> Graph:
    """Delete every isolated block and every leaf block except its cut-vertex."""
    bd = block_decomposition(g)
    doomed: set[int] = set()
    for b, cuts in zip(bd.blocks, bd.block_cuts):
        if len(cuts) == 0:
            doomed |= b
        elif len(cuts) == 1:
            doomed |= b - {cuts[0]}
    return remove_vertices(g, doomed)


def _internal_attachments(bd: BlockDecomposition, internal: set[int], i: int) -> list[int]:
    """Vertices of block i lying in some other internal block."""
    hits = []
    for v in sorted(bd.blocks[i]):
        for j in bd.blocks_at(v):
            if j != i and j in internal:
                hits.append(v)
                break
    return hits


def find_near_leaf_block(h: Graph) -> NearLeafResult:
    """Pick the near-leaf block of h with minimum contained vertex id.

    A near-leaf block is an internal block whose internal block neighbours
    all attach at one shared cut-vertex (the anchor), or whose neighbours
    are all leaf blocks (no anchor). Requires h connected, pointed, more
    than one block and not a star.
    """
    if len(connected_components(h)) != 1:
        raise InputError("near-leaf search requires a connected graph")
    bd = block_decomposition(h)
    if len(bd.blocks) <= 1:
        raise InputError("near-leaf search requires more than one block")
    if shape_check(h) == "star":
        raise InputError("near-leaf search is undefined on stars")
    if not is_pointed(h):
        raise InputError("near-leaf search requires a pointed graph")

    internal = {i for i, cuts in enumerate(bd.block_cuts) if len(cuts) >= 2}
    best: NearLeafResult | None = None
    best_key: int | None = None
    for i in sorted(internal, key=lambda i: min(bd.blocks[i])):
        hits = _internal_attachments(bd, internal, i)
        if len(hits) > 1:
            continue
        anchor = hits[0] if hits else None
        key = min(bd.blocks[i])
        if best is None or key < best_key:
            non_anchor = tuple(v for v in bd.block_cuts[i] if v != anchor)
            best = NearLeafResult(i, anchor, non_anchor)
            best_key = key
    if best is None:
        raise InputError("graph has no near-leaf block")
    return best


def block_cut_tree_dot(bd: BlockDecomposition) -> str:
    """DOT text of the block-cut tree: block nodes B<i>, cut-vertex nodes c<v>."""
    lines = ["graph blockcut {"]
    for i, b in enumerate(bd.blocks):
        label = ",".join(str(v) for v in sorted(b))
        lines.append(f'  B{i} [shape=box, label="B{i}: {{{label}}}"];')
    for v in sorted(bd.cut_vertices):
        lines.append(f'  c{v} [label="c{v}"];')
    for i, cuts in enumerate(bd.block_cuts):
        for v in cuts:
            lines.append(f"  B{i} -- c{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
