"""Block decomposition, block-cut tree, block classes, core, near-leaf blocks."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

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
    """Blocks and cut-vertices of a graph, computed once and cached on it.

    Blocks are maximal 2-connected components; a bridge edge is a block of
    its own and an isolated vertex forms a singleton block. block_cuts[i]
    lists the cut-vertices inside blocks[i], which together give the
    bipartite incidence of the block-cut tree. cliques is True when every
    block is a clique, that is when the graph is a block graph.

    Index k stands for the k-th smallest vertex id (ids[k]; ids is None
    when the ids are exactly 0..n-1, so that each id is its own index).
    blocks, cut_vertices and block_cuts are in ids; the fields after ids
    are in indices, for the peel engine. Components are numbered by
    increasing minimum vertex. The decomposition refers to no graph, so a
    graph and its cached decomposition form no reference cycle.
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    block_cuts: tuple[tuple[int, ...], ...]
    cliques: bool
    ids: tuple[int, ...] | None
    members: tuple[frozenset[int], ...]  # blocks[i] in indices
    cuts: tuple[int, ...]  # cut-vertex indices, increasing
    incidence: tuple[tuple[int, ...], ...]  # the blocks at each index, increasing
    vertex_comp: tuple[int, ...]  # the component of each index
    block_comp: tuple[int, ...]  # the component of each block
    components: int

    def position(self, v: int) -> int | None:
        """The index of vertex id v; None when v is not a vertex."""
        ids = self.ids
        if ids is None:
            return v if 0 <= v < len(self.incidence) else None
        k = bisect_left(ids, v)
        return k if k < len(ids) and ids[k] == v else None

    def blocks_at(self, v: int) -> tuple[int, ...]:
        """Indices of the blocks containing vertex v, in increasing order."""
        k = self.position(v)
        return () if k is None else self.incidence[k]


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
    """Blocks and cut-vertices of g. The first call decomposes g and caches
    the decomposition on the graph, whose edges never change; later calls
    return the cached one."""
    bd = g._block_index
    if bd is None:
        bd = g._block_index = _decompose(g)
    return bd


def _decompose(g: Graph) -> BlockDecomposition:
    """The decomposition of g: by the clique-tree pass when g is a block
    graph, else by the Hopcroft-Tarjan pass."""
    ids = compact_ids(g)
    if ids is None:
        adj = [g.neighbors(v) for v in range(g.vertex_count)]
    else:
        pos = {v: k for k, v in enumerate(ids)}
        adj = [{pos[w] for w in g.neighbors(v)} for v in ids]
    found = _clique_tree(adj, g.edge_count)
    if found is not None:
        return _index(ids, True, *found)
    raw_blocks, comp, components = _hopcroft_tarjan(adj)
    # blocks partition the edges and a block on k vertices holds at most
    # k(k-1)/2 of them, so all blocks are cliques exactly when these maxima
    # add up to the edge count
    cliques = sum(len(b) * (len(b) - 1) // 2 for b in raw_blocks) == g.edge_count
    return _index(ids, cliques, raw_blocks, comp, components)


def _clique_tree(adj: list[set[int]], m: int) -> tuple[list, list[int], int] | None:
    """Blocks of a block graph by one breadth-first pass over its cliques;
    None when the graph is not a block graph.

    In a block graph the block through an edge uv is {u, v} plus the
    common neighbours of u and v. The search takes component roots in
    increasing index order; at each vertex v it splits the neighbours
    outside the block v was reached through into such blocks, each by one
    set intersection. It refuses when a block meets a vertex reached
    before, for then the blocks close a cycle. Otherwise the blocks form a
    tree and every edge lies in one of them, so their pair counts add up
    to the edge count m exactly when every block is a clique; the pass
    refuses unless they do.
    """
    n = len(adj)
    comp = [-1] * n  # -1 marks a vertex not reached yet
    via: list[set[int]] = [set()] * n  # the block each vertex was reached through
    raw_blocks: list = []
    pairs = 0
    c = -1
    for root in range(n):
        if comp[root] >= 0:
            continue
        c += 1
        comp[root] = c
        if not adj[root]:
            raw_blocks.append([root])
            continue
        queue = [root]
        for v in queue:
            nv = adj[v]
            todo = nv - via[v]
            while todo:
                u = todo.pop()
                b = nv & adj[u]
                if not b:  # an edge block, the common case in sparse graphs
                    if comp[u] >= 0:
                        return None
                    comp[u] = c
                    via[u] = b = {u, v}
                    queue.append(u)
                    raw_blocks.append(b)
                    pairs += 1
                    continue
                b.add(u)
                for x in b:
                    if comp[x] >= 0:
                        return None
                    comp[x] = c
                    via[x] = b
                queue.extend(b)
                todo -= b
                b.add(v)
                raw_blocks.append(b)
                pairs += len(b) * (len(b) - 1) // 2
    if pairs != m:
        return None
    return raw_blocks, comp, c + 1


def _hopcroft_tarjan(adj: list[set[int]]) -> tuple[list, list[int], int]:
    """Blocks of any graph by one iterative Hopcroft-Tarjan pass.

    The search runs over vertex indices with list-held discovery times and
    low points, and keeps a stack of vertices: when no edge from a child's
    subtree reaches above its parent, the vertices stacked since the
    child, plus the parent, form a block. Each search root starts a new
    component.
    """
    n = len(adj)
    disc = [0] * n  # discovery time, from 1; 0 marks an unvisited vertex
    low = [0] * n
    comp = [0] * n
    raw_blocks: list[list[int]] = []
    vstack: list[int] = []
    t = 0
    c = -1
    for root in range(n):
        if disc[root]:
            continue
        c += 1
        comp[root] = c
        if not adj[root]:
            raw_blocks.append([root])
            continue
        t += 1
        disc[root] = low[root] = t
        vstack.append(root)
        # frames: (vertex, iterator over its neighbours, its vstack position)
        stack = [(root, iter(adj[root]), 0)]
        while stack:
            v, nbrs, _ = stack[-1]
            for w in nbrs:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    comp[w] = c
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
        vstack.clear()
    return raw_blocks, comp, c + 1


def _index(
    ids: tuple[int, ...] | None, cliques: bool, raw_blocks: list, comp: list[int], components: int
) -> BlockDecomposition:
    """The decomposition made of the blocks that a pass found, given as
    collections of vertex indices in any order, of its component numbering
    and of its verdict on whether every block is a clique. Blocks are
    listed by (minimum vertex id, sorted vertex tuple), so the
    decomposition does not depend on the pass or its traversal; the
    cut-vertices are the vertices in two or more blocks."""
    # sorted lists compare like the (minimum, sorted tuple) key; indices
    # follow id order, so mapping them to ids keeps the order
    ordered = sorted(map(sorted, raw_blocks))
    incidence: list[list[int]] = [[] for _ in comp]
    for i, b in enumerate(ordered):
        for x in b:
            incidence[x].append(i)
    is_cut = [len(bl) >= 2 for bl in incidence]
    cuts = tuple(compress(range(len(comp)), is_cut))
    local_cuts = tuple(tuple(filter(is_cut.__getitem__, b)) for b in ordered)
    members = tuple(map(frozenset, ordered))
    if ids is None:
        blocks, cut_vertices, block_cuts = members, frozenset(cuts), local_cuts
    else:
        blocks = tuple(frozenset([ids[x] for x in b]) for b in ordered)
        cut_vertices = frozenset(ids[x] for x in cuts)
        block_cuts = tuple(tuple(ids[x] for x in bc) for bc in local_cuts)
    return BlockDecomposition(
        blocks,
        cut_vertices,
        block_cuts,
        cliques,
        ids,
        members,
        cuts,
        tuple(map(tuple, incidence)),
        tuple(comp),
        tuple(comp[b[0]] for b in ordered),
        components,
    )


def classify_blocks(bd: BlockDecomposition) -> list[BlockClass]:
    """One BlockClass per block, aligned with bd.blocks."""
    out = []
    for b, cuts in zip(bd.blocks, bd.block_cuts):
        k = len(cuts)
        kind = "isolated" if k == 0 else ("leaf" if k == 1 else "internal")
        out.append(BlockClass(kind, len(b) == 2, frozenset(cuts)))
    return out


def is_block_graph(g: Graph) -> bool:
    """True iff every block induces a clique."""
    return block_decomposition(g).cliques


def checked_block_decomposition(g: Graph) -> BlockDecomposition:
    """Block decomposition of a block graph.

    Raises NotBlockGraphError naming a missing pair of the first block
    that is not a clique.
    """
    bd = block_decomposition(g)
    if not bd.cliques:
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
