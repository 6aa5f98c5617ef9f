"""Block decomposition, the block-graph check and the block-cut tree."""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .errors import NotBlockGraphError
from .graph import Graph, compact_ids, missing_clique_pair


class BlockDecomposition(NamedTuple):
    """Blocks and cut-vertices of a graph, computed once and cached on it.

    Blocks are maximal 2-connected components; a bridge edge is a block of
    its own and an isolated vertex forms a singleton block. cliques is True
    when every block is a clique, that is when the graph is a block graph.

    Index k stands for the k-th smallest vertex id (ids[k]; ids is None
    when the ids are exactly 0..n-1, so that each id is its own index).
    The fields hold only what the peel engine reads, in indices: members
    lists each block's vertex indices in increasing order, blocks are
    ordered by their member tuples (so by least vertex first), cuts are
    the vertices in two or more blocks, incidence holds the blocks at each
    vertex and cut_counts the number of cut-vertices in each block. The
    rest is the state every peel run starts from: a vertex in two or more
    internal blocks is an internal attachment of each of its blocks, and
    the leaf lists are sorted, so also heaps.

    blocks, cut_vertices and block_cuts are the same structure in vertex
    ids. Each is built anew at every access, and no solver reads them; a
    caller that reads one in a loop holds it in a local first. The
    decomposition refers to no graph, so a graph and its cached
    decomposition form no reference cycle.
    """

    cliques: bool
    ids: tuple[int, ...] | None
    members: tuple[tuple[int, ...], ...]  # each block's vertex indices, increasing
    cuts: tuple[int, ...]  # cut-vertex indices, increasing
    incidence: tuple[tuple[int, ...], ...]  # the blocks at each index, increasing
    cut_counts: tuple[int, ...]  # cut-vertices in each block
    edged: tuple[bool, ...]  # blocks of two or more members: all but isolated vertices
    internal: tuple[bool, ...]  # blocks with two or more cuts
    internal_at: tuple[int, ...]  # internal blocks at each index
    attachments: tuple[int, ...]  # internal attachments in each block
    big_leaves: tuple[tuple[int, int], ...]  # (least member, block): one cut, 3+ members
    near_leaves: tuple[tuple[int, int], ...]  # (least member, block): internal, attachments <= 1

    def _labels(self, xs):
        """The vertex ids of the indices xs, in their order."""
        ids = self.ids
        return xs if ids is None else [ids[x] for x in xs]

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The vertex ids of each block."""
        return tuple(frozenset(self._labels(b)) for b in self.members)

    @property
    def cut_vertices(self) -> frozenset[int]:
        return frozenset(self._labels(self.cuts))

    @property
    def block_cuts(self) -> tuple[tuple[int, ...], ...]:
        """The cut-vertex ids in each block, in increasing order; together
        they give the bipartite incidence of the block-cut tree."""
        is_cut = [len(bl) >= 2 for bl in self.incidence]
        return tuple(tuple(self._labels([x for x in b if is_cut[x]])) for b in self.members)


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
    raw_blocks = _clique_tree(adj, g.edge_count)
    if raw_blocks is not None:
        return _index(ids, True, raw_blocks, len(adj))
    raw_blocks = [tuple(sorted(b)) for b in _hopcroft_tarjan(adj)]
    # blocks partition the edges and a block on k vertices holds at most
    # k(k-1)/2 of them, so all blocks are cliques exactly when these maxima
    # add up to the edge count
    cliques = sum(len(b) * (len(b) - 1) // 2 for b in raw_blocks) == g.edge_count
    return _index(ids, cliques, raw_blocks, len(adj))


def _clique_tree(adj: list[set[int]], m: int) -> list[tuple[int, ...]] | None:
    """Blocks of a block graph, each a sorted tuple of its vertices, by one
    breadth-first pass over its cliques; None when the graph is not a
    block graph.

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
    reached = [False] * n
    via: list[set[int]] = [set()] * n  # the block each vertex was reached through
    raw_blocks: list[tuple[int, ...]] = []
    pairs = 0
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        if not adj[root]:
            raw_blocks.append((root,))
            continue
        queue = [root]
        for v in queue:
            nv = adj[v]
            todo = nv - via[v]
            while todo:
                u = todo.pop()
                b = nv & adj[u]
                if not b:  # an edge block, the common case in sparse graphs
                    if reached[u]:
                        return None
                    reached[u] = True
                    via[u] = {u, v}
                    queue.append(u)
                    raw_blocks.append((u, v) if u < v else (v, u))
                    pairs += 1
                    continue
                b.add(u)
                for x in b:
                    if reached[x]:
                        return None
                    reached[x] = True
                    via[x] = b
                queue.extend(b)
                todo -= b
                b.add(v)
                raw_blocks.append(tuple(sorted(b)))
                pairs += len(b) * (len(b) - 1) // 2
    if pairs != m:
        return None
    return raw_blocks


def _hopcroft_tarjan(adj: list[set[int]]) -> list[list[int]]:
    """Blocks of any graph by one iterative Hopcroft-Tarjan pass.

    The search runs over vertex indices with list-held discovery times and
    low points, and keeps a stack of vertices: when no edge from a child's
    subtree reaches above its parent, the vertices stacked since the
    child, plus the parent, form a block.
    """
    n = len(adj)
    disc = [0] * n  # discovery time, from 1; 0 marks an unvisited vertex
    low = [0] * n
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
        vstack.clear()
    return raw_blocks


def _index(
    ids: tuple[int, ...] | None, cliques: bool, raw_blocks: list[tuple[int, ...]], n: int
) -> BlockDecomposition:
    """The decomposition of the n vertex indices made of the blocks that
    a pass found, each a sorted tuple of indices, in any order, and of its
    verdict on whether every block is a clique. Blocks are listed by
    their member tuples, that is by (minimum vertex, the rest), so
    the decomposition does not depend on the pass or its traversal; the
    cut-vertices are the vertices in two or more blocks."""
    raw_blocks.sort()
    incidence: list[list[int]] = [[] for _ in range(n)]
    for i, b in enumerate(raw_blocks):
        for x in b:
            incidence[x].append(i)
    cuts = tuple(compress(range(n), [len(bl) >= 2 for bl in incidence]))
    cut_counts = [0] * len(raw_blocks)
    for x in cuts:
        for i in incidence[x]:
            cut_counts[i] += 1
    internal = [c >= 2 for c in cut_counts]
    internal_at = [0] * n
    for b in compress(raw_blocks, internal):
        for x in b:
            internal_at[x] += 1
    attachments = [0] * len(raw_blocks)
    for x in cuts:
        if internal_at[x] >= 2:
            for i in incidence[x]:
                attachments[i] += 1
    # each member tuple leads with its least member and the blocks are
    # sorted, so both leaf lists come out sorted
    big_leaves = [(b[0], i) for i, b in enumerate(raw_blocks) if cut_counts[i] == 1 and len(b) >= 3]
    near_leaves = [(b[0], i) for i, b in enumerate(raw_blocks) if internal[i] and attachments[i] <= 1]
    edged = [len(b) >= 2 for b in raw_blocks]
    start = (edged, internal, internal_at, attachments, big_leaves, near_leaves)
    return BlockDecomposition(
        cliques, ids, tuple(raw_blocks), cuts, tuple(map(tuple, incidence)), tuple(cut_counts), *map(tuple, start)
    )


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
