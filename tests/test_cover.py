"""Cover loop: formula values, oracle equivalence, validity, box models."""

import gc
import hashlib
import json
import random
import tracemalloc
import weakref

import pytest

from antcover import blocks, cli
from antcover import cover as cover_module
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
    min_cover,
    min_threshold_cover,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from antcover.errors import InputError, NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph, disjoint_union, relabel_offset, serialize_edgelist
from antcover.oracle import (
    brute_coboxicity,
    brute_cothdim,
    enumerate_maximal_cointerval_edge_sets,
    maximal_threshold_edge_sets,
)
from antcover.peel import COINTERVAL, THRESHOLD, peel_count, peel_cover
from helpers import (
    complete_graph,
    cycle_graph,
    engine_run_tuples,
    free_trees,
    golden_corpus,
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


def test_one_block_decomposition_per_call(monkeypatch, tmp_path):
    """One Hopcroft-Tarjan pass per graph, however many calls read it."""
    computed = []
    original = blocks._hopcroft_tarjan

    def counting(g):
        computed.append(g)
        return original(g)

    monkeypatch.setattr(blocks, "_hopcroft_tarjan", counting)
    large = random_block_graph(60, seed=5)
    small = random_block_graph(9, seed=6)
    graph_file = tmp_path / "large.txt"
    graph_file.write_text(serialize_edgelist(large))

    for fn in (blocks.is_block_graph, coboxicity, cothdim, min_cointerval_cover, min_threshold_cover):
        fn(large)
    assert len(computed) == 1 and computed[0] is large

    computed.clear()
    args = ["cover", "-i", str(graph_file), "-o", str(tmp_path / "c.json")]
    assert cli.main(args + ["--dot", str(tmp_path / "c.dot")]) == 0
    assert computed == [large]  # the parsed copy, once for the cover and the DOT

    computed.clear()
    for fn in (
        maximal_cointerval_subgraphs,
        maximal_threshold_subgraphs,
        enumerate_maximal_cointerval_edge_sets,
        maximal_threshold_edge_sets,
    ):
        fn(small)
    assert len(computed) == 1 and computed[0] is small


class WeakGraph(Graph):
    """A Graph that can be watched through a weak reference."""

    __slots__ = ("__weakref__",)


def _solve_everything(g):
    assert blocks.is_block_graph(g)
    coboxicity(g)
    cothdim(g)
    for kind in (COINTERVAL, THRESHOLD):
        min_cover(g, kind)
    bd = blocks.block_decomposition(g)
    return bd.blocks_at(min(g.vertices))


def test_solved_graph_is_freed_without_cyclic_gc():
    src = random_block_graph(300, seed=7)
    graphs = [WeakGraph.from_data(h.vertices, h.edges) for h in (src, relabel_offset(src, 10**9))]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [weakref.ref(g) for g in graphs]
        for g in graphs:
            assert _solve_everything(g)
            assert g._block_index is not None
        del g, graphs
        # the cached block index refers to no graph, so reference counting
        # alone frees each graph once the caller drops it
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_cached_block_index_equals_a_fresh_pass():
    for name, g in golden_corpus().items():
        for h in (g, relabel_offset(g, 10**9)):
            first = blocks.block_decomposition(h)
            _solve_everything(h)
            again = blocks.block_decomposition(h)
            assert again.index is first.index, name
            fresh = blocks.block_decomposition(Graph.from_data(h.vertices, h.edges))
            assert again == fresh, name
            # BlockIndex compares every field: blocks, cuts, incidence, labels
            assert again.index == fresh.index, name


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


# sha256 of json.dumps(cover_to_dict(cover, traces)) on helpers.golden_corpus,
# recorded at commit 5e6d02b; cover JSON and traces stay byte-identical
# unless a change says why they differ
GOLDEN_COVER_SHA256 = {
    ("random-40", "cointerval"): "0ec1a3e16e5549f263545bd4cdce52b30e5f7bfb563b0983cc6b7d7a0c6aa8fe",
    ("random-40", "threshold"): "85e7c0eed4247558c451e49de2954a4d107a21f38567e06f618072b64c688dff",
    ("random-150", "cointerval"): "521d76a289e0682b657a748ce26a5378b5558aa3347b9997ae132b0676ddec25",
    ("random-150", "threshold"): "415a846be03ffab81f987a61ccd9ab1c4b67884ebd0d00e0ec17464aaa74b67b",
    ("random-300", "cointerval"): "4a1b2d7bb6e0155ae244300ed0cbb24cd791dc89d8721b8ef34eff5a5a9d0b78",
    ("random-300", "threshold"): "780ccf844214d2eb6aaba188067b16aae5a5abc32f1eceb11f9b03d7432782a9",
    ("random-edgy-200", "cointerval"): "ea6b280289f53c863f0e39fe3f4aee9fedc56c6c3a62cd5035c69babd18a97dc",
    ("random-edgy-200", "threshold"): "11d92fe6bd76b608c099497db145a85b4272a407ee03544c83a0b75f46b4f886",
    ("random-cliquey-200", "cointerval"): "50630de5d8539575e0553f31d75b631b3153e45b9dc6ab57f2111a0ecad95a94",
    ("random-cliquey-200", "threshold"): "cdf51772d57710080911eb492ca5b1b88088f28940ef071b3ed3a29ca105a2b3",
    ("path-100", "cointerval"): "860d9924ca44475ba043fde4a2c45c95bfed7c58c20871150f10f3202eafb50e",
    ("path-100", "threshold"): "5f3910df56f889af53f80eebe9f94d5474e0d0cf61be8fa9b380a156392322d9",
    ("star-60", "cointerval"): "1f99024e8dac4a2a468cb79ad238901c44685836f64b6aa5fd968801091cdf3b",
    ("star-60", "threshold"): "7e1f754557a0544d3563d7197558328249523470d9524c7e12273c6f1f236cd3",
    ("caterpillar-30x3", "cointerval"): "186f786c28c98c07459c55cd26e6c5bb5f13abba5dcf81f644360a5bb42897d8",
    ("caterpillar-30x3", "threshold"): "3919c4fb4c364aa95f80c3ad08861222f55a26c104d8471f9b380a541c5fea90",
    ("large-blocks-300", "cointerval"): "ca25b045214252c430b34813046e8ca6eab5a827fd6f9d9398ca42e2ca194836",
    ("large-blocks-300", "threshold"): "84a0c2b02cecac0558f65a299c29ab97b10bf9c96a1aa19fe0bcecbeae9d502c",
}


def test_cover_json_matches_golden_hashes():
    cases = set()
    for name, g in golden_corpus().items():
        for kind in (COINTERVAL, THRESHOLD):
            cover, traces, _ = min_cover(g, kind)
            text = json.dumps(cover_to_dict(cover, traces))
            assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_COVER_SHA256[name, kind], (name, kind)
            cases.update(t.case_taken for t in traces)
    assert cases == {"1", "2", "3a", "3b", "3*-2cuts", "3*-many"}


def test_count_path_takes_the_same_iterations():
    rng = random.Random(56)
    for i in range(60):
        g = random_block_graph(rng.randint(2, 150), seed=2200 + i)
        bd = blocks.block_decomposition(g)
        for kind, value in ((COINTERVAL, coboxicity), (THRESHOLD, cothdim)):
            elements, traces = peel_cover(g, bd, kind, False)
            size, count_traces = peel_count(g, bd, kind)
            assert count_traces == traces  # same cases, removed sets and order
            assert size == value(g) == len(elements)


def test_solvers_leave_gc_as_they_found_it(monkeypatch):
    seen = []
    original = cover_module.peel_count

    def recording(*args):
        seen.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(cover_module, "peel_count", recording)
    solvers = (coboxicity, cothdim, min_cointerval_cover, min_threshold_cover)
    assert gc.isenabled()
    for solve in solvers:
        with pytest.raises(NotBlockGraphError):
            solve(cycle_graph(4))
        assert gc.isenabled(), solve.__name__
    assert coboxicity(path_graph(9)) == 3
    assert seen == [False]  # paused while solving
    gc.disable()
    try:
        for solve in solvers:
            solve(path_graph(9))
            assert not gc.isenabled(), solve.__name__
            with pytest.raises(NotBlockGraphError):
                solve(cycle_graph(4))
            assert not gc.isenabled(), solve.__name__
    finally:
        gc.enable()


def shift_ids(x, offset):
    """Every vertex id inside a run's tuples moved by offset."""
    if isinstance(x, int):
        return x + offset
    if isinstance(x, (tuple, frozenset, list)):
        return type(x)(shift_ids(y, offset) for y in x)
    return x  # case labels and None


def test_covers_on_ids_far_from_zero():
    offset = 10**9
    rng = random.Random(57)
    for i in range(40):
        g = random_block_graph(rng.randint(2, 80), seed=2300 + i)
        far = Graph.from_data(
            [v + offset for v in g.vertices], [(a + offset, b + offset) for a, b in g.edges]
        )
        for kind in (COINTERVAL, THRESHOLD):
            assert engine_run_tuples(far, kind) == shift_ids(engine_run_tuples(g, kind), offset)
        assert (coboxicity(far), cothdim(far)) == (coboxicity(g), cothdim(g))
    # index-addressed state has one slot per vertex, not one per id up to the largest
    g = random_block_graph(2000, seed=58)
    far = Graph.from_data(
        [v + offset for v in g.vertices], [(a + offset, b + offset) for a, b in g.edges]
    )
    tracemalloc.start()
    try:
        min_cointerval_cover(far, trace_components=False)
        coboxicity(far)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024 * 1024


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

    outside = Cover(
        g,
        (EdgeSubgraph(g, frozenset({0, 1, 99}), frozenset({(0, 1)})),),
        "cointerval",
    )
    report = verify_cover(g, outside)
    assert report.not_subgraphs == (0,) and not report.valid


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
