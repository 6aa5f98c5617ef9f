"""Big ants: construction, recognition properties, maximal enumerations."""

import random

import pytest

from antcover.acceptance import property_one_verbatim
from antcover.blocks import block_decomposition
from antcover.cointerval import (
    ant_order,
    big_ant,
    is_cointerval,
    is_threshold,
    maximal_cointerval_subgraphs,
    maximal_threshold_subgraphs,
    prefix_counts,
    sigma_subgraph,
)
from antcover.errors import InputError, NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph
from antcover.oracle import all_sigma_edge_sets
from helpers import complete_graph, cycle_graph, path_graph, spider_graph, star_graph


def as_graph(sub) -> Graph:
    return Graph.from_data(sub.vertices, sub.edges)


def is_ant_certificate(ant, threshold=False) -> bool:
    """ant_order passes prefix_counts and the literal triple condition."""
    order = ant_order(ant)
    return (
        prefix_counts(ant.vertices, ant.edges, order, threshold) is not None
        and property_one_verbatim(ant.edges, order)
    )


def test_big_ant_star():
    g = star_graph(3)
    ant = big_ant(g, {0, 1}, 0, 0)
    assert ant.vertices == set(g.vertices)
    assert ant.edges == g.edges


def test_big_ant_path_middle_edge_covers_everything():
    g = path_graph(4)
    ant = big_ant(g, {1, 2}, 1, 2)
    assert ant.vertices == {0, 1, 2, 3}
    assert ant.edges == {(0, 1), (1, 2), (2, 3)}


def test_big_ant_clique():
    g = complete_graph(5)
    ant = big_ant(g, set(range(5)), 0, 0)
    assert ant.edges == g.edges


def test_big_ant_input_errors():
    g = path_graph(4)
    with pytest.raises(InputError):
        big_ant(g, {0, 2}, 0, 2)  # not a clique
    with pytest.raises(InputError):
        big_ant(g, {1, 2}, 0, 2)  # apex outside the clique


def test_random_big_ants_are_cointerval_and_one_apex_threshold():
    rng = random.Random(31)
    for i in range(300):
        g = random_block_graph(rng.randint(2, 30), seed=900 + i)
        bd = block_decomposition(g)
        blocks = [b for b in bd.blocks if len(b) >= 2]
        block = rng.choice(blocks)
        u = rng.choice(sorted(block))
        v = rng.choice(sorted(block))
        two = big_ant(g, block, u, v)
        one = big_ant(g, block, u, u)
        assert is_cointerval(as_graph(two)) is not None
        assert is_threshold(as_graph(one))
        assert is_ant_certificate(two)
        assert is_ant_certificate(one, threshold=True)


def test_ant_order_is_the_sorted_layout_and_a_certificate():
    rng = random.Random(62)
    for i in range(150):
        g = random_block_graph(rng.randint(2, 40), seed=6200 + i)
        for block in block_decomposition(g).blocks:
            if len(block) < 2:
                continue
            members = sorted(block)
            u, v = rng.choice(members), rng.choice(members)
            if u != v:
                # apex a, the rest of the block, the outside vertices seen
                # in the host by b only, by both, then b, then those by a only
                two = big_ant(g, block, u, v)
                a, b = two.apex_u, two.apex_v  # stored in id order
                outside = sorted(two.vertices - block)
                na, nb = g.neighbors(a), g.neighbors(b)
                layout = (
                    [a] + sorted(block - {a, b})
                    + [w for w in outside if w in nb and w not in na]
                    + [w for w in outside if w in na and w in nb]
                    + [b]
                    + [w for w in outside if w in na and w not in nb]
                )
                assert ant_order(two) == layout
                assert is_ant_certificate(two)
            one = big_ant(g, block, u, u)
            order = ant_order(one)
            assert order[-1] == u and set(order[: len(block) - 1]) == block - {u}
            assert prefix_counts(one.vertices, one.edges, order, threshold=True) is not None


def test_ant_layout_puts_apexes_at_the_ends():
    g = spider_graph()
    ant = big_ant(g, {0, 1, 2}, 1, 2)
    order = ant_order(ant)
    at = {x: k for k, x in enumerate(order)}
    assert order[0] == ant.apex_u
    assert at[ant.apex_v] > max(at[x] for x in ant.block - {ant.apex_v})
    assert is_ant_certificate(ant)


def test_ant_representation_on_general_host_clique():
    # clique apexes with overlapping outside neighbourhoods still lay out
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 5)])
    ant = big_ant(g, {0, 1, 2}, 0, 1)
    assert is_ant_certificate(ant)


def test_maximal_cointerval_k3_single():
    ants = maximal_cointerval_subgraphs(complete_graph(3))
    assert len(ants) == 1
    assert ants[0].edges == complete_graph(3).edges


def test_maximal_cointerval_p3():
    ants = maximal_cointerval_subgraphs(path_graph(3))
    assert [a.edges for a in ants] == [frozenset({(0, 1), (1, 2)})]


def test_maximal_cointerval_p5_matches_all_orderings():
    g = path_graph(5)
    ants = maximal_cointerval_subgraphs(g)
    got = {a.edges for a in ants}
    sets = all_sigma_edge_sets(g)
    want = {s for s in sets if not any(s < t for t in sets)}
    assert got == want
    assert frozenset({(0, 1), (1, 2), (2, 3)}) in got


def test_maximal_enumeration_matches_all_orderings_random():
    rng = random.Random(32)
    for i in range(40):
        g = random_block_graph(rng.randint(2, 9), seed=1200 + i)
        got = {a.edges for a in maximal_cointerval_subgraphs(g)}
        sets = all_sigma_edge_sets(g)
        want = {s for s in sets if not any(s < t for t in sets)}
        assert got == want


def test_maximal_threshold_examples():
    star = maximal_threshold_subgraphs(star_graph(3))
    assert len(star) == 1 and star[0].edges == star_graph(3).edges
    p4 = maximal_threshold_subgraphs(path_graph(4))
    assert {a.edges for a in p4} == {
        frozenset({(0, 1), (1, 2)}),
        frozenset({(1, 2), (2, 3)}),
    }
    k5 = maximal_threshold_subgraphs(complete_graph(5))
    assert len(k5) == 1 and k5[0].edges == complete_graph(5).edges


def test_maximal_threshold_elements_pass_recognition():
    rng = random.Random(33)
    for i in range(40):
        g = random_block_graph(rng.randint(2, 10), seed=1300 + i)
        for ant in maximal_threshold_subgraphs(g):
            assert ant.apex_u == ant.apex_v
            assert is_threshold(as_graph(ant))


def test_maximal_enumeration_rejects_non_block_graphs():
    with pytest.raises(NotBlockGraphError):
        maximal_cointerval_subgraphs(cycle_graph(4))
    with pytest.raises(NotBlockGraphError):
        maximal_threshold_subgraphs(cycle_graph(5))


def test_sigma_subgraph_of_block_graph_is_inside_some_maximal_ant():
    rng = random.Random(34)
    for i in range(60):
        g = random_block_graph(rng.randint(2, 9), seed=1400 + i)
        ants = maximal_cointerval_subgraphs(g)
        sigma = list(g.vertices)
        rng.shuffle(sigma)
        sub = sigma_subgraph(g, sigma)
        assert any(sub.edges <= a.edges for a in ants)
