"""Generic co-interval recognition machinery.

A graph is co-interval exactly when its complement is an interval graph,
i.e. when the complement is chordal and the graph itself has a transitive
orientation. The orientation sorts the complement's maximal cliques into a
consecutive arrangement, which yields an integer interval model and a
vertex ordering whose earlier neighbourhoods are prefixes.
"""

from __future__ import annotations

import heapq

from .cointerval import prefix_counts
from .errors import InternalInvariantError
from .graph import Graph

Adj = dict[int, set[int]]


def complement_adjacency(g: Graph) -> Adj:
    verts = set(g.vertices)
    return {v: verts - g.neighbors(v) - {v} for v in verts}


def chordal_elimination_order(adj: Adj) -> list[int] | None:
    """Perfect elimination order via maximum cardinality search, or None.

    The returned list starts with the first vertex to eliminate; each
    vertex's later neighbours must form a clique.
    """
    order: list[int] = []  # reverse elimination order
    weight = {v: 0 for v in adj}
    heap = [(0, v) for v in sorted(adj)]
    heapq.heapify(heap)
    numbered: set[int] = set()
    while heap:
        w, v = heapq.heappop(heap)
        if v in numbered or -w != weight[v]:
            continue
        numbered.add(v)
        order.append(v)
        for u in adj[v]:
            if u not in numbered:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    elim = order[::-1]
    pos = {v: i for i, v in enumerate(elim)}
    for i, v in enumerate(elim):
        later = [u for u in adj[v] if pos[u] > i]
        if not later:
            continue
        m = min(later, key=pos.get)
        rest = set(later) - {m}
        if not rest <= adj[m]:
            return None
    return elim


def maximal_cliques_chordal(adj: Adj, elim: list[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from its elimination order."""
    pos = {v: i for i, v in enumerate(elim)}
    candidates = []
    for i, v in enumerate(elim):
        cand = frozenset({v} | {u for u in adj[v] if pos[u] > i})
        candidates.append(cand)
    candidates.sort(key=len, reverse=True)
    cliques: list[frozenset[int]] = []
    for cand in candidates:
        if not any(cand <= kept for kept in cliques):
            cliques.append(cand)
    return sorted(cliques, key=lambda c: tuple(sorted(c)))


def transitive_orientation(g: Graph) -> set[tuple[int, int]] | None:
    """A transitive orientation of g's edges, or None if none exists.

    Forced implication classes are peeled off one at a time; edges already
    removed count as non-adjacent for later forcing. The final product is
    verified for transitivity, so a returned orientation is always valid.
    """
    adj_r = {v: set(g.neighbors(v)) for v in g.vertices}
    arcs: set[tuple[int, int]] = set()

    for a, b in sorted(g.edges):
        if b not in adj_r[a]:
            continue
        cls: dict[frozenset[int], tuple[int, int]] = {frozenset((a, b)): (a, b)}
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            for z in sorted(adj_r[x] - adj_r[y] - {y}):
                key = frozenset((x, z))
                prev = cls.get(key)
                if prev is None:
                    cls[key] = (x, z)
                    queue.append((x, z))
                elif prev != (x, z):
                    return None
            for z in sorted(adj_r[y] - adj_r[x] - {x}):
                key = frozenset((z, y))
                prev = cls.get(key)
                if prev is None:
                    cls[key] = (z, y)
                    queue.append((z, y))
                elif prev != (z, y):
                    return None
        for key, arc in cls.items():
            arcs.add(arc)
            u, v = tuple(key)
            adj_r[u].discard(v)
            adj_r[v].discard(u)

    succ: dict[int, set[int]] = {v: set() for v in g.vertices}
    for x, y in arcs:
        succ[x].add(y)
    for x, y in arcs:
        if not succ[y] <= succ[x]:
            return None
    return arcs


def _order_cliques(
    g: Graph, cliques: list[frozenset[int]], arcs: set[tuple[int, int]]
) -> list[int]:
    """Total order of the complement's maximal cliques along the line.

    Two distinct maximal cliques always miss a cross pair that is an edge
    of g; its orientation decides which clique comes first.
    """
    c = len(cliques)
    before = [[False] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            only_i = sorted(cliques[i] - cliques[j])
            only_j = sorted(cliques[j] - cliques[i])
            decided = False
            for u in only_i:
                nbrs = g.neighbors(u)
                for v in only_j:
                    if v in nbrs:
                        if (u, v) in arcs:
                            before[i][j] = True
                        else:
                            before[j][i] = True
                        decided = True
                        break
                if decided:
                    break
            if not decided:
                raise InternalInvariantError(
                    "distinct maximal cliques with no separating edge"
                )
    order = sorted(range(c), key=lambda i: sum(before[i]), reverse=True)
    for a in range(c):
        for b in range(a + 1, c):
            if not before[order[a]][order[b]]:
                raise InternalInvariantError("clique order is not total")
    return order


def cointerval_order_and_intervals(
    h: Graph,
) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]] | None:
    """Vertex ordering plus integer interval model, or None if not co-interval.

    Intervals are indexed by the consecutive arrangement of the
    complement's maximal cliques: two intervals are disjoint exactly when
    the pair is an edge of h.
    """
    verts = sorted(h.vertices)
    if len(verts) <= 1 or h.edge_count == 0:
        return tuple(verts), {v: (0, 0) for v in verts}

    comp = complement_adjacency(h)
    elim = chordal_elimination_order(comp)
    if elim is None:
        return None
    arcs = transitive_orientation(h)
    if arcs is None:
        return None

    cliques = maximal_cliques_chordal(comp, elim)
    order = _order_cliques(h, cliques, arcs)
    if min(cliques[order[0]]) > min(cliques[order[-1]]):
        order.reverse()

    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for idx, ci in enumerate(order):
        for v in cliques[ci]:
            first.setdefault(v, idx)
            last[v] = idx
    for v in verts:
        if last[v] - first[v] + 1 != sum(1 for ci in order if v in cliques[ci]):
            raise InternalInvariantError("clique arrangement not consecutive")

    intervals = {v: (first[v], last[v]) for v in verts}
    ordering = tuple(sorted(verts, key=lambda v: (last[v], first[v], v)))
    if prefix_counts(h.vertices, h.edges, ordering) is None:
        raise InternalInvariantError("derived ordering violates the prefix contract")
    return ordering, intervals
