"""Sigma-subgraphs, co-interval recognition, certificates, threshold test."""

import itertools
import random

import pytest

from antcover.cointerval import (
    BigAnt,
    is_cointerval,
    is_threshold,
    prefix_counts,
    sigma_subgraph,
    threshold_order,
)
from antcover.cover import Cover, cover_to_box_representation, verify_cover
from antcover.errors import InputError
from antcover.graph import Graph, build_graph
from helpers import (
    brute_is_cointerval,
    complete_graph,
    cycle_graph,
    has_forbidden_threshold_subgraph,
    path_graph,
    random_graph,
    star_graph,
)


def as_graph(sub) -> Graph:
    return Graph.from_data(sub.vertices, sub.edges)


def is_certificate(edges, order) -> bool:
    """order lists distinct vertices, every endpoint among them, and passes
    prefix_counts."""
    return prefix_counts(set(order), edges, order) is not None


def intervals_match_edges(vertices, edges, order) -> bool:
    """The intervals [p_k, k] of the order, checked against every pair:
    disjoint exactly on the edges."""
    counts = prefix_counts(vertices, edges, order)
    if counts is None:
        return False
    iv = {v: (p, k) for k, (v, p) in enumerate(zip(order, counts))}
    vs = sorted(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            (lu, hu), (lv, hv) = iv[u], iv[v]
            if (hu < lv or hv < lu) != ((min(u, v), max(u, v)) in edges):
                return False
    return True


def interval_disjointness_graph(intervals) -> Graph:
    """Vertex i per closed interval; an edge where two intervals are disjoint."""
    n = len(intervals)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if intervals[i][1] < intervals[j][0] or intervals[j][1] < intervals[i][0]
    ]
    return build_graph(n, edges)


def test_sigma_clique_any_order():
    k3 = complete_graph(3)
    for perm in itertools.permutations(range(3)):
        sub = sigma_subgraph(k3, perm)
        assert sub.edges == k3.edges and sub.vertices == set(range(3))


def test_sigma_path_center_first_keeps_everything():
    p3 = path_graph(3)  # edges (0,1), (1,2)
    sub = sigma_subgraph(p3, (1, 0, 2))
    assert sub.vertices == {0, 1, 2}
    assert sub.edges == {(0, 1), (1, 2)}


def test_sigma_path_end_first_stops_early():
    p3 = path_graph(3)
    sub = sigma_subgraph(p3, (0, 1, 2))
    assert sub.vertices == {0, 1}
    assert sub.edges == {(0, 1)}


def test_sigma_rejects_non_permutation():
    with pytest.raises(InputError):
        sigma_subgraph(path_graph(3), (0, 1))
    with pytest.raises(InputError):
        sigma_subgraph(path_graph(3), (0, 1, 1))


def test_sigma_working_set_empties_and_stays_empty():
    # the second ordered vertex shares no neighbour with the first, so the
    # working set dies there and the later edge (2, 3) is never picked up
    g = build_graph(6, [(0, 2), (0, 3), (0, 4), (1, 5), (2, 3)])
    sub = sigma_subgraph(g, (0, 1, 2, 3, 4, 5))
    assert sub.vertices == {0, 2, 3, 4}
    assert sub.edges == {(0, 2), (0, 3), (0, 4)}


def test_sigma_subgraphs_are_always_cointerval():
    rng = random.Random(21)
    for _ in range(300):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        sigma = list(g.vertices)
        rng.shuffle(sigma)
        sub = sigma_subgraph(g, sigma)
        assert is_cointerval(as_graph(sub)) is not None
        restricted = tuple(v for v in sigma if v in sub.vertices)
        assert is_certificate(sub.edges, restricted)


def test_is_cointerval_known_graphs():
    assert is_cointerval(build_graph(4, [(0, 1), (2, 3)])) is None  # 2K2
    for n in range(1, 7):
        order = is_cointerval(complete_graph(n))
        assert order is not None and is_certificate(complete_graph(n).edges, order)
    order = is_cointerval(cycle_graph(4))
    assert order is not None and is_certificate(cycle_graph(4).edges, order)
    assert is_cointerval(path_graph(5)) is None  # complement of P5 is not interval


def test_is_cointerval_exhaustive_small():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = build_graph(n, edges)
            order = is_cointerval(g)
            assert (order is not None) == brute_is_cointerval(g)
            if order is not None:
                assert is_certificate(g.edges, order)


def test_is_cointerval_random_medium():
    rng = random.Random(22)
    for _ in range(250):
        g = random_graph(rng.randint(6, 7), rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        assert (is_cointerval(g) is not None) == brute_is_cointerval(g)


def test_prefix_counts_accepts_certificates_and_returns_the_counts():
    # P3 0-1-2 with the centre last: 0, 2 isolated from what precedes, 1 sees both
    edges = frozenset({(0, 1), (1, 2)})
    assert prefix_counts({0, 1, 2}, edges, [0, 2, 1]) == [0, 0, 2]
    assert prefix_counts({0, 1, 2}, edges, [0, 2, 1], threshold=True) == [0, 0, 2]
    # the intervals [p_k, k] are disjoint exactly on the edges
    assert intervals_match_edges({0, 1, 2}, edges, [0, 2, 1])


def test_prefix_counts_rejects_a_swapped_pair():
    # P3 0-1-2: in the order 0, 2, 1 every earlier neighbourhood is a
    # prefix; swapping the last pair leaves 1 second, so the earlier
    # neighbour 1 of vertex 2 sits at position 1 with position 0 missing
    edges = frozenset({(0, 1), (1, 2)})
    assert prefix_counts({0, 1, 2}, edges, [0, 2, 1]) is not None
    assert prefix_counts({0, 1, 2}, edges, [2, 0, 1]) is not None
    assert prefix_counts({0, 1, 2}, edges, [0, 1, 2]) is None
    assert not is_certificate(edges, [0, 1, 2])


def test_prefix_counts_rejects_a_non_prefix_neighbourhood():
    # C4 0-1-2-3: vertex 2's earlier neighbours 1 and 3 are positions 1, 2
    edges = cycle_graph(4).edges
    assert prefix_counts({0, 1, 2, 3}, edges, [0, 1, 3, 2]) is None
    assert prefix_counts({0, 1, 2, 3}, edges, [0, 2, 1, 3]) is not None


def test_prefix_counts_rejects_non_threshold_counts():
    # P4 0-1-2-3 is co-interval but not threshold: the order 1, 3, 0, 2 is a
    # co-interval certificate whose counts 0, 0, 1, 2 have p = 1 at k = 2
    edges = path_graph(4).edges
    assert prefix_counts({0, 1, 2, 3}, edges, [1, 3, 0, 2]) == [0, 0, 1, 2]
    assert prefix_counts({0, 1, 2, 3}, edges, [1, 3, 0, 2], threshold=True) is None
    # 2K2 has no certificate at all, whatever the order
    two_k2 = build_graph(4, [(0, 1), (2, 3)]).edges
    for perm in itertools.permutations(range(4)):
        assert prefix_counts({0, 1, 2, 3}, two_k2, perm) is None


@pytest.mark.parametrize(
    "order",
    [[0, 1], [0, 1, 2, 2], [0, 1, 2, 9], [0, 1, 2, 3, 4]],
    ids=["missing", "repeated", "foreign", "extra"],
)
def test_prefix_counts_rejects_orders_that_are_not_permutations(order):
    assert prefix_counts({0, 1, 2, 3}, frozenset({(0, 1)}), order) is None


def test_prefix_counts_rejects_loops_and_edges_outside_the_order():
    assert prefix_counts({0, 1}, frozenset({(0, 0)}), [0, 1]) is None
    assert prefix_counts({0, 1}, frozenset({(0, 5)}), [0, 1]) is None


def test_representation_k2_and_empty():
    # the recogniser's order is the interval model: [p_k, k] per vertex
    k2 = complete_graph(2)
    order = is_cointerval(k2)
    assert intervals_match_edges(k2.vertices, k2.edges, order)
    assert prefix_counts(k2.vertices, k2.edges, order) == [0, 1]
    empty = build_graph(3, [])
    order = is_cointerval(empty)
    assert prefix_counts(empty.vertices, empty.edges, order) == [0, 0, 0]
    assert intervals_match_edges(empty.vertices, empty.edges, order)


def test_representation_contract_on_random_cointerval_graphs():
    rng = random.Random(23)
    hits = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        order = is_cointerval(g)
        if order is None:
            continue
        hits += 1
        assert intervals_match_edges(g.vertices, g.edges, order)
    assert hits > 100


def test_representation_rejects_non_cointerval():
    # 2K2 has no interval model: no order, and no box model of a cover
    # that uses it as one element
    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    assert is_cointerval(two_k2) is None
    element = BigAnt(frozenset({0, 1}), 0, 1, two_k2.vertices, two_k2.edges)
    cover = Cover(two_k2, (element,), "cointerval")
    assert verify_cover(two_k2, cover).recognition_failures == (0,)
    with pytest.raises(InputError):
        cover_to_box_representation(two_k2, cover)


def test_disjointness_graphs_of_random_interval_families_are_recognised():
    # positive cases far beyond brute force: every disjointness graph of
    # closed intervals is co-interval, and the recogniser must find an
    # order that prefix_counts accepts
    rng = random.Random(25)
    dense = 0
    for _ in range(120):
        n = rng.randint(5, 60)
        span = rng.choice([n // 2 + 1, n, 4 * n])
        intervals = []
        for _ in range(n):
            lo = rng.randrange(span)
            intervals.append((lo, lo + rng.randrange(rng.choice([2, span // 4 + 2, span]))))
        g = interval_disjointness_graph(intervals)
        dense += 4 * g.edge_count > n * (n - 1)  # more than half of all pairs
        order = is_cointerval(g)
        assert order is not None, intervals
        assert prefix_counts(g.vertices, g.edges, order) is not None
        assert intervals_match_edges(g.vertices, g.edges, order)
    assert dense > 20


def test_is_threshold_known():
    for n in range(1, 7):
        assert is_threshold(complete_graph(n))
    assert not is_threshold(path_graph(4))
    assert is_threshold(star_graph(4))
    assert not is_threshold(cycle_graph(4))
    assert not is_threshold(build_graph(4, [(0, 1), (2, 3)]))
    assert is_threshold(build_graph(0, []))


def test_is_threshold_matches_forbidden_subgraphs():
    rng = random.Random(24)
    for _ in range(10_000):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        assert is_threshold(g) == (not has_forbidden_threshold_subgraph(g))
        order = threshold_order(g)
        assert (order is not None) == is_threshold(g)
        if order is not None:
            assert prefix_counts(g.vertices, g.edges, order, threshold=True) is not None
