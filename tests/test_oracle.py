"""Brute-force oracle: enumeration, exact set cover, reference values."""

import random

import pytest

from antcover.cointerval import EdgeSubgraph
from antcover.cover import Cover, verify_cover
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
from helpers import complete_graph, cycle_graph, path_graph, random_graph, star_graph


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
    cover = Cover(
        g,
        tuple(
            EdgeSubgraph(frozenset(v for e in cands[i] for v in e), cands[i])
            for i in witness
        ),
        "cointerval",
    )
    assert verify_cover(g, cover).valid


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
