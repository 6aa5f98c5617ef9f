"""Cover loop: formula values, oracle equivalence, validity, box models."""

import random
import sys

import pytest

from antcover import blocks
from antcover.cointerval import (
    EdgeSubgraph,
    is_cointerval,
    is_threshold,
    maximal_cointerval_subgraphs,
    maximal_threshold_subgraphs,
)
from antcover.cover import (
    Cover,
    coboxicity,
    cothdim,
    cover_from_dict,
    cover_to_box_representation,
    cover_to_dict,
    is_structural_big_ant,
    min_cointerval_cover,
    min_threshold_cover,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from antcover.errors import InputError, NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph, disjoint_union
from antcover.oracle import (
    brute_coboxicity,
    brute_cothdim,
    enumerate_maximal_cointerval_edge_sets,
    maximal_threshold_edge_sets,
)
from helpers import (
    complete_graph,
    cycle_graph,
    engine_run_tuples,
    free_trees,
    naive_cover,
    path_graph,
    spider_graph,
    star_graph,
)


def test_path_formula_small():
    for n in range(2, 31):
        assert coboxicity(path_graph(n)) == path_coboxicity(n) == (n + 1) // 3


def test_path_coboxicity_endpoints():
    assert path_coboxicity(1) == 0
    assert path_coboxicity(4) == 1
    assert path_coboxicity(10) == 3
    with pytest.raises(InputError):
        path_coboxicity(0)


def test_clique_cover_is_single_element():
    cover, traces = min_cointerval_cover(complete_graph(5))
    assert len(cover.elements) == 1
    assert cover.elements[0].edges == complete_graph(5).edges
    assert traces[0].case_taken == "1"


def test_two_components_cover_size_two():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert coboxicity(g) == 2


def test_spider_matches_oracle():
    g = spider_graph()
    assert coboxicity(g) == brute_coboxicity(g) == 2
    assert cothdim(g) == brute_cothdim(g) == 3


def test_edgeless_values_are_zero():
    g = build_graph(5, [])
    assert coboxicity(g) == 0
    assert cothdim(g) == 0


def test_rejects_non_block_graph():
    with pytest.raises(NotBlockGraphError):
        min_cointerval_cover(cycle_graph(4))
    with pytest.raises(NotBlockGraphError):
        cothdim(cycle_graph(5))


def test_one_block_decomposition_per_call(monkeypatch):
    original = blocks.block_decomposition
    calls = []

    def counting(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "antcover" and getattr(module, "block_decomposition", None) is original:
            monkeypatch.setattr(module, "block_decomposition", counting)
    large = random_block_graph(60, seed=5)
    small = random_block_graph(9, seed=6)
    for fn, g in [
        (blocks.is_block_graph, large),
        (coboxicity, large),
        (cothdim, large),
        (min_cointerval_cover, large),
        (min_threshold_cover, large),
        (maximal_cointerval_subgraphs, small),
        (maximal_threshold_subgraphs, small),
        (enumerate_maximal_cointerval_edge_sets, small),
        (maximal_threshold_edge_sets, small),
    ]:
        calls.clear()
        fn(g)
        assert calls == [g], fn.__name__


def test_p7_run_is_deterministic_and_traced():
    g = path_graph(7)
    cover, traces = min_cointerval_cover(g)
    assert [t.case_taken for t in traces] == ["3a", "3a"]
    assert traces[0].chosen_block == {1, 2}
    assert traces[0].protected_vertex == 2
    assert traces[0].removed == {0, 1, 2}
    assert traces[0].component == set(range(7))
    assert traces[1].component == {3, 4, 5, 6}
    again, again_traces = min_cointerval_cover(g)
    assert again == cover and again_traces == traces


def test_trace_invariants_random():
    rng = random.Random(51)
    for i in range(80):
        g = random_block_graph(rng.randint(2, 60), seed=1600 + i)
        for builder in (min_cointerval_cover, min_threshold_cover):
            cover, traces = builder(g)
            validate_run(g, cover, traces)
            for t in traces:
                assert t.removed <= t.component
                assert cover.elements[t.added_element_index].edges
            assert verify_cover(g, cover).valid
            for el in cover.elements:
                assert is_structural_big_ant(g, el)


def test_every_element_passes_its_recognition():
    rng = random.Random(52)
    for i in range(40):
        g = random_block_graph(rng.randint(2, 25), seed=1700 + i)
        ci, _ = min_cointerval_cover(g)
        for el in ci.elements:
            assert is_cointerval(Graph.from_data(el.vertices, el.edges)) is not None
        th, _ = min_threshold_cover(g)
        for el in th.elements:
            assert el.apex_u == el.apex_v
            assert is_threshold(Graph.from_data(el.vertices, el.edges))


def test_engine_matches_naive_reference():
    graphs = free_trees(7)
    for i in range(120):
        graphs.append(random_block_graph(2 + (i % 13), seed=1800 + i))
    graphs.append(spider_graph())
    for g in graphs:
        for kind in ("cointerval", "threshold"):
            assert engine_run_tuples(g, kind) == naive_cover(g, kind)


def test_matches_oracle_on_random_block_graphs():
    rng = random.Random(53)
    for i in range(150):
        g = random_block_graph(rng.randint(2, 12), seed=1900 + i)
        assert coboxicity(g) == brute_coboxicity(g)
        assert cothdim(g) == brute_cothdim(g)


def test_additivity_over_disjoint_unions():
    rng = random.Random(54)
    for i in range(60):
        g1 = random_block_graph(rng.randint(1, 25), seed=2000 + 2 * i)
        g2 = random_block_graph(rng.randint(1, 25), seed=2001 + 2 * i)
        assert coboxicity(disjoint_union(g1, g2)) == coboxicity(g1) + coboxicity(g2)


def test_threshold_between_coboxicity_and_twice():
    rng = random.Random(55)
    for i in range(80):
        g = random_block_graph(rng.randint(2, 80), seed=2100 + i)
        a, b = coboxicity(g), cothdim(g)
        assert a <= b <= 2 * a


def test_verify_cover_reports():
    g = path_graph(4)
    cover, _ = min_cointerval_cover(g)
    assert verify_cover(g, cover).valid

    missing = Cover(
        g,
        (EdgeSubgraph(g, frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)})),),
        "cointerval",
    )
    report = verify_cover(g, missing)
    assert not report.valid and report.uncovered == {(2, 3)}

    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    bogus = Cover(
        two_k2,
        (EdgeSubgraph(two_k2, frozenset(range(4)), two_k2.edges),),
        "cointerval",
    )
    report = verify_cover(two_k2, bogus)
    assert not report.valid and report.recognition_failures == (0,)

    foreign = Cover(
        g,
        (EdgeSubgraph(g, frozenset({0, 1}), frozenset({(0, 2)})),),
        "cointerval",
    )
    assert verify_cover(g, foreign).not_subgraphs == (0,)


def test_box_representation_k2():
    g = complete_graph(2)
    cover, _ = min_cointerval_cover(g)
    rep = cover_to_box_representation(g, cover)
    assert rep.dimension == 1
    assert rep.satisfies(g)


def test_box_representation_p7_exhaustive_pairs():
    g = path_graph(7)
    cover, _ = min_cointerval_cover(g)
    rep = cover_to_box_representation(g, cover)
    assert rep.dimension == 2
    assert rep.satisfies(g)


def test_box_representation_edgeless_promoted_to_one_dimension():
    g = build_graph(4, [])
    cover, _ = min_cointerval_cover(g)
    rep = cover_to_box_representation(g, cover)
    assert rep.dimension == 1
    assert len({rep.boxes[v] for v in g.vertices}) == 1
    assert rep.satisfies(g)


def test_box_representation_rejects_invalid_cover():
    g = path_graph(4)
    broken = Cover(g, (), "cointerval")
    with pytest.raises(InputError):
        cover_to_box_representation(g, broken)


def test_box_representation_threshold_cover_also_works():
    g = spider_graph()
    cover, _ = min_threshold_cover(g)
    rep = cover_to_box_representation(g, cover)
    assert rep.dimension == len(cover.elements)
    assert rep.satisfies(g)


def test_cover_serialization_round_trip():
    g = spider_graph()
    cover, traces = min_cointerval_cover(g)
    payload = cover_to_dict(cover, traces)
    assert payload["size"] == len(cover.elements)
    again = cover_from_dict(g, payload)
    assert again == cover
    assert verify_cover(g, again).valid


def test_validate_run_catches_tampering():
    g = path_graph(7)
    cover, traces = min_cointerval_cover(g)
    bad = list(traces)
    bad[0] = type(traces[0])(
        traces[0].component,
        traces[0].case_taken,
        traces[0].chosen_block,
        traces[0].protected_vertex,
        traces[0].apexes,
        frozenset(),
        traces[0].added_element_index,
    )
    with pytest.raises(InputError):
        validate_run(g, cover, bad)


def test_star_cover_single_element():
    cover, traces = min_threshold_cover(star_graph(4))
    assert len(cover.elements) == 1
    assert traces[0].case_taken == "1"
