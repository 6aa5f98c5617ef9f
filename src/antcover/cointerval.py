"""Co-interval and threshold machinery: sigma-subgraphs, big ants, certificates.

Every co-interval or threshold verdict in the package rests on one
certificate: an order of the vertices whose earlier neighbourhoods are
prefixes, checked by prefix_counts in linear time. The intervals [p_k, k]
it yields are disjoint exactly on the edges, so the certificate is also
the interval model. ant_order writes the order of a big ant down from its
block and apexes; is_cointerval finds one for any graph (see
recognition.py), and threshold_order finds the threshold form.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Set
from typing import NamedTuple

from .errors import InputError
from .graph import Edge, Graph, clique_edges, missing_clique_pair, norm_edge

# The two kinds of cover element: co-interval subgraphs (two-apex big ants)
# and threshold subgraphs (one-apex big ants).
COINTERVAL = "cointerval"
THRESHOLD = "threshold"


class EdgeSubgraph(NamedTuple):
    """A subgraph given by explicit vertex and edge sets of a host graph."""

    vertices: frozenset[int]
    edges: frozenset[Edge]


class BigAnt(NamedTuple):
    """The subgraph spanned by a clique plus the full stars of two apexes.

    The realized edge set is E(Q) together with every host edge incident
    to apex_u or apex_v; apex_u == apex_v gives the one-apex form, which
    is a threshold graph.
    """

    block: frozenset[int]
    apex_u: int
    apex_v: int
    vertices: frozenset[int]
    edges: frozenset[Edge]


def sigma_subgraph(g: Graph, sigma: Sequence[int]) -> EdgeSubgraph:
    """Subgraph grown by the shrinking-neighbourhood recursion over sigma.

    Working set i equals the common neighbourhood of the first i ordered
    vertices; step i contributes the edges from sigma[i] into that set.
    The result is always co-interval.
    """
    order = tuple(sigma)
    if len(order) != g.vertex_count or set(order) != set(g.vertices):
        raise InputError("sigma must be a permutation of the vertex set")
    verts: set[int] = set()
    edges: set[Edge] = set()
    current: set[int] | None = None
    for v in order:
        current = set(g.neighbors(v)) if current is None else current & g.neighbors(v)
        if not current:
            break
        verts.add(v)
        verts |= current
        edges.update(norm_edge(v, w) for w in current)
    return EdgeSubgraph(frozenset(verts), frozenset(edges))


def big_ant(g: Graph, q: Iterable[int], u: int, v: int) -> BigAnt:
    """The big ant over clique q with apexes u and v (possibly equal)."""
    block = frozenset(q)
    if u not in block or v not in block:
        raise InputError("apexes must lie in the clique")
    missing = missing_clique_pair(g, block)
    if missing is not None:
        raise InputError(f"vertex set is not a clique: missing edge {missing}")
    return _ant(block, (u, v), g.neighbors)


def _ant(
    block: frozenset[int], apexes: tuple[int, ...], neighbors: Callable[[int], Set[int]]
) -> BigAnt:
    """The big ant over block, a clique, with the given apexes in it: the
    clique plus every edge at an apex, read from neighbors."""
    edges = set(clique_edges(block))
    verts = set(block)
    for a in apexes:
        nbrs = neighbors(a)
        verts |= nbrs
        edges.update(norm_edge(a, w) for w in nbrs)
    return BigAnt(block, min(apexes), max(apexes), frozenset(verts), frozenset(edges))


def is_cointerval(h: Graph) -> tuple[int, ...] | None:
    """An ordering witnessing that h is co-interval, or None.

    The witness satisfies the prefix-neighbourhood contract of
    prefix_counts: for positions i < j < k, an edge at (j, k) forces an
    edge at (i, k). See recognition.cointerval_order.
    """
    from .recognition import cointerval_order

    return cointerval_order(h)


def threshold_order(h: Graph) -> list[int] | None:
    """A threshold certificate order of h, or None if h is not threshold.

    Isolated and universal vertices are peeled off until h is empty; the
    reverse of the peel order lists each vertex after every vertex still
    present when it was peeled, so it is isolated from or adjacent to all
    of them, and prefix_counts(..., threshold=True) accepts the order.
    """
    adj = {v: set(h.neighbors(v)) for v in sorted(h.vertices)}
    peeled: list[int] = []
    while adj:
        n = len(adj)
        peel = [v for v, nbrs in adj.items() if not nbrs or len(nbrs) == n - 1]
        if not peel:
            return None
        for v in peel:
            for w in adj[v]:
                adj[w].discard(v)
            del adj[v]
        peeled += peel
    return peeled[::-1]


def is_threshold(h: Graph) -> bool:
    """Iterated peeling of isolated and universal vertices empties h."""
    return threshold_order(h) is not None


def maximal_ants(g: Graph, two_apex: bool) -> list[BigAnt]:
    """Maximal big ants of a block graph; NotBlockGraphError for any other.

    Two-apex ants are its maximal co-interval subgraphs, one-apex ants its
    maximal threshold subgraphs. Edge-dominated ants are dropped and equal
    edge sets deduplicated. Every block is a certified clique, so the ants
    skip big_ant's clique check.
    """
    from .blocks import checked_block_decomposition

    ants = []
    for b in checked_block_decomposition(g).blocks:
        if len(b) < 2:
            continue
        members = sorted(b)
        for i, u in enumerate(members):
            for v in members[i:] if two_apex else (u,):
                ants.append(_ant(b, (u, v), g.neighbors))
    by_edges: dict[frozenset[Edge], BigAnt] = {}
    for ant in ants:
        key = ant.edges
        prev = by_edges.get(key)
        if prev is None or (min(ant.block), ant.apex_u, ant.apex_v) < (
            min(prev.block), prev.apex_u, prev.apex_v
        ):
            by_edges[key] = ant
    distinct = list(by_edges.values())
    keep = []
    for ant in distinct:
        if not any(other is not ant and ant.edges < other.edges for other in distinct):
            keep.append(ant)
    return sorted(keep, key=lambda a: (min(a.block), a.apex_u, a.apex_v))


def maximal_cointerval_subgraphs(g: Graph) -> list[BigAnt]:
    """All maximal co-interval subgraphs of a block graph, as big ants."""
    return maximal_ants(g, two_apex=True)


def maximal_threshold_subgraphs(g: Graph) -> list[BigAnt]:
    """All maximal threshold subgraphs of a block graph: one-apex big ants."""
    return maximal_ants(g, two_apex=False)


def prefix_counts(
    vertices: Set[int],
    edges: Iterable[Edge],
    order: Sequence[int],
    threshold: bool = False,
) -> list[int] | None:
    """Check a certificate order in O(|V|+|E|); return its prefix counts.

    The order must be a permutation of the vertices, and the earlier
    neighbours of the vertex at each position k must occupy positions
    0..p_k-1, where p_k is their number. The intervals [p_k, k] are then
    disjoint exactly on the edges, so the graph is co-interval. With
    threshold, every p_k must also be 0 or k: each vertex is isolated from
    or adjacent to all earlier ones, so the graph is threshold. Each edge
    must be listed once, as in an edge set of (min, max) pairs. Returns the
    list of p_k, or None if any check fails.
    """
    n = len(order)
    pos = dict(zip(order, range(n)))
    if len(pos) != n or pos.keys() != vertices:
        return None
    counts = [0] * n
    top = [-1] * n  # largest earlier neighbour position
    for a, b in edges:
        i, j = pos.get(a), pos.get(b)
        if i is None or j is None or i == j:
            return None
        if i > j:
            i, j = j, i
        counts[j] += 1
        if i > top[j]:
            top[j] = i
    if [t + 1 for t in top] != counts:
        return None
    if threshold and any(p and p != k for k, p in enumerate(counts)):
        return None
    return counts


def ant_order(element) -> list[int] | None:
    """The candidate certificate order of a big ant, built from its block
    and apexes; None when it has no block or an apex lies outside it.

    Two apexes u != v: u, the rest of the block, the outside vertices
    adjacent to v only, those adjacent to both or neither, v, and the
    outside vertices adjacent to u only, each group by id; among the
    intervals [p_k, k] of this order, those of the block are pairwise
    disjoint, with u leftmost and v rightmost. One apex u: the block
    without u, the outside vertices, then u,
    which certifies a threshold graph too. Adjacency is read from the
    element's own edges, and prefix_counts decides whether the order is
    a certificate, so a tampered element merely fails that check.
    """
    block = getattr(element, "block", None)
    if block is None:
        return None
    u, v = element.apex_u, element.apex_v
    vertices, edges = element.vertices, element.edges
    if u not in block or v not in block or not block <= vertices:
        return None
    middle = sorted(block - {u, v})
    outside = sorted(vertices - block)
    if u == v:
        return middle + outside + [u]
    only_u, only_v, other = [], [], []
    for w in outside:
        at_u = norm_edge(u, w) in edges
        at_v = norm_edge(v, w) in edges
        (only_u if at_u and not at_v else only_v if at_v and not at_u else other).append(w)
    return [u] + middle + only_v + other + [v] + only_u
