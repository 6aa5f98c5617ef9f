"""Brute-force oracle: enumeration, exact set cover, reference values."""

import itertools
import random
import tracemalloc

import pytest

from antcover.blocks import is_block_graph
from antcover.cointerval import COINTERVAL, THRESHOLD, is_cointerval, is_threshold, maximal_cointerval_subgraphs
from antcover.cover import Cover, coboxicity, cothdim, min_cover, validate_run, verify_cover
from antcover.errors import InputError, SizeLimitError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph
from antcover.oracle import (
    SetCoverInstance,
    brute_coboxicity,
    brute_cothdim,
    enumerate_maximal_cointerval_edge_sets,
    maximal_threshold_edge_sets,
    min_set_cover_exact,
)
from helpers import (
    complete_graph,
    connected_block_graphs,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)


def test_enumerate_examples():
    k3 = enumerate_maximal_cointerval_edge_sets(complete_graph(3))
    assert k3 == [complete_graph(3).edges]
    p3 = enumerate_maximal_cointerval_edge_sets(path_graph(3))
    assert p3 == [frozenset({(0, 1), (1, 2)})]
    two_k2 = enumerate_maximal_cointerval_edge_sets(build_graph(4, [(0, 1), (2, 3)]))
    assert set(two_k2) == {frozenset({(0, 1)}), frozenset({(2, 3)})}


def test_enumerate_general_graph_uses_orderings():
    c4 = enumerate_maximal_cointerval_edge_sets(cycle_graph(4))
    assert c4 == [cycle_graph(4).edges]  # a 4-cycle is itself co-interval


def test_enumerate_size_guard():
    with pytest.raises(SizeLimitError):
        enumerate_maximal_cointerval_edge_sets(cycle_graph(10))
    with pytest.raises(SizeLimitError):
        brute_coboxicity(random_block_graph(40, seed=0))


def test_min_set_cover_basics():
    one = SetCoverInstance(frozenset({"a"}), (frozenset({"a"}),))
    assert min_set_cover_exact(one) == (1, [0])
    inst = SetCoverInstance(
        frozenset({"a", "b"}),
        (frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})),
    )
    size, witness = min_set_cover_exact(inst)
    assert size == 1 and inst.candidates[witness[0]] == {"a", "b"}


def test_min_set_cover_p5_ants():
    g = path_graph(5)
    cands = tuple(enumerate_maximal_cointerval_edge_sets(g))
    size, witness = min_set_cover_exact(SetCoverInstance(g.edges, cands))
    assert size == 2
    ants = {ant.edges: ant for ant in maximal_cointerval_subgraphs(g)}
    cover = Cover(g, tuple(ants[cands[i]] for i in witness), "cointerval")
    assert verify_cover(g, cover).valid


def test_cothdim_covers_the_edges_of_g_not_of_its_complement():
    """cothdim(G) is the fewest threshold subgraphs covering E(G), that is,
    the fewest threshold graphs whose intersection is the complement of G;
    the union-form threshold dimension of the complement differs on P6."""
    g = path_graph(6)
    complement = build_graph(6, [(a, b) for a in range(6) for b in range(a + 2, 6)])
    assert cothdim(g) == brute_cothdim(g) == 3
    assert brute_cothdim(complement) == 2


def test_min_set_cover_infeasible():
    with pytest.raises(InputError):
        min_set_cover_exact(SetCoverInstance(frozenset({"a", "b"}), (frozenset({"a"}),)))


def test_brute_coboxicity_values():
    assert brute_coboxicity(path_graph(4)) == 1
    assert brute_coboxicity(build_graph(4, [(0, 1), (2, 3)])) == 2
    assert brute_coboxicity(cycle_graph(4)) == 1
    assert brute_coboxicity(build_graph(3, [])) == 0


def test_brute_cothdim_values():
    assert brute_cothdim(star_graph(5)) == 1
    assert brute_cothdim(path_graph(4)) == 2
    assert brute_cothdim(complete_graph(5)) == 1
    assert brute_cothdim(cycle_graph(4)) == 2  # C4 needs two threshold pieces


def test_brute_threshold_general_enumeration_elements_are_threshold():
    from antcover.cointerval import is_threshold

    g = cycle_graph(5)
    for s in maximal_threshold_edge_sets(g):
        verts = {v for e in s for v in e}
        assert is_threshold(Graph.from_data(verts, s))


def test_oracle_internal_consistency():
    rng = random.Random(41)
    for i in range(60):
        g = random_block_graph(rng.randint(2, 10), seed=1500 + i)
        assert brute_coboxicity(g) <= brute_cothdim(g)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        assert brute_coboxicity(g) <= brute_cothdim(g)


def maximal_by_definition(g, recognise):
    """Every non-empty edge set of g whose edge graph recognise accepts
    (returns a true value for), kept when no other accepted set contains
    it."""
    edges = sorted(g.edges)
    accepted = []
    for size in range(1, len(edges) + 1):
        for chosen in itertools.combinations(edges, size):
            if recognise(Graph.from_data({v for e in chosen for v in e}, chosen)):
                accepted.append(frozenset(chosen))
    return {s for s in accepted if not any(s < t for t in accepted)}


def small_and_seeded_graphs():
    """Every labelled graph of at most 4 vertices, then seeded graphs of
    5 or 6 vertices that are not block graphs."""
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, size):
                yield build_graph(n, chosen)
    rng = random.Random(32)
    seeded = 0
    while seeded < 24:
        g = random_graph(rng.randint(5, 6), rng.uniform(0.4, 0.8), rng)
        if not is_block_graph(g):
            seeded += 1
            yield g


@pytest.mark.parametrize(
    "enumerate_sets, recognise",
    [(enumerate_maximal_cointerval_edge_sets, is_cointerval), (maximal_threshold_edge_sets, is_threshold)],
    ids=["cointerval", "threshold"],
)
def test_enumerators_list_the_maximal_subgraphs_by_definition(enumerate_sets, recognise):
    for g in small_and_seeded_graphs():
        sets = enumerate_sets(g)
        assert len(sets) == len(set(sets)), g
        assert set(sets) == maximal_by_definition(g, recognise), sorted(g.edges)


def test_threshold_oracle_on_k9_minus_two_disjoint_edges_stays_small():
    # not a block graph, and at the general-graph bound of 9 vertices,
    # where its 34 edges have 2^34 subsets
    g = build_graph(9, [e for e in itertools.combinations(range(9), 2) if e not in {(0, 1), (2, 3)}])
    tracemalloc.start()
    try:
        assert brute_cothdim(g) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def test_every_connected_block_graph_of_at_most_9_vertices_meets_the_oracle():
    graphs = connected_block_graphs(9)
    assert [len(graphs[n]) for n in range(2, 10)] == [1, 2, 4, 9, 22, 59, 165, 496]
    for family in graphs.values():
        for g in family:
            for kind, value, brute in (
                (COINTERVAL, coboxicity, brute_coboxicity),
                (THRESHOLD, cothdim, brute_cothdim),
            ):
                want = brute(g)
                assert value(g) == want, (kind, sorted(g.edges))
                cover, traces = min_cover(g, kind)
                assert len(cover.elements) == want, (kind, sorted(g.edges))
                validate_run(g, cover, traces)
