"""Cover loop: formula values, oracle equivalence, validity, box models."""

import gc
import hashlib
import json
import random
import time
import tracemalloc
import weakref

import pytest

from antcover import blocks, cli, peel
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
    box_to_dict,
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
from antcover.errors import InputError, InternalInvariantError, NotBlockGraphError, SizeLimitError
from antcover.generate import random_block_graph
from antcover.graph import (
    Graph,
    build_graph,
    clique_edges,
    disjoint_union,
    missing_clique_pair,
    relabel_offset,
    serialize_edgelist,
)
from antcover.oracle import (
    brute_coboxicity,
    brute_cothdim,
    enumerate_maximal_cointerval_edge_sets,
    maximal_threshold_edge_sets,
)
from antcover.peel import COINTERVAL, THRESHOLD, peel_count, peel_cover
from helpers import (
    benchmark_scale_corpus,
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
    """One block decomposition and one peel start state per graph, however
    many calls read them."""
    computed = []
    original = blocks._decompose

    def counting(g):
        computed.append(g)
        return original(g)

    started = []
    original_start = peel._start_state

    def counting_start(ix):
        started.append(ix)
        return original_start(ix)

    monkeypatch.setattr(blocks, "_decompose", counting)
    monkeypatch.setattr(peel, "_start_state", counting_start)
    large = random_block_graph(60, seed=5)
    small = random_block_graph(9, seed=6)
    graph_file = tmp_path / "large.txt"
    graph_file.write_text(serialize_edgelist(large))

    for fn in (blocks.is_block_graph, coboxicity, cothdim, min_cointerval_cover, min_threshold_cover):
        fn(large)
    assert len(computed) == 1 and computed[0] is large
    # four peel runs, one start state, computed from the cached decomposition
    assert len(started) == 1 and started[0] is large._block_index

    computed.clear()
    started.clear()
    args = ["cover", "-i", str(graph_file), "-o", str(tmp_path / "c.json")]
    assert cli.main(args + ["--dot", str(tmp_path / "c.dot")]) == 0
    assert computed == [large]  # the parsed copy, once for the cover and the DOT
    assert len(started) == 1

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


def test_block_graphs_are_solved_without_hopcroft_tarjan(monkeypatch):
    """The clique-tree pass decomposes every block graph; Hopcroft-Tarjan
    is left to graphs that are not."""

    def refuse(adj):
        raise AssertionError("Hopcroft-Tarjan pass on a block graph")

    monkeypatch.setattr(blocks, "_hopcroft_tarjan", refuse)
    corpus = golden_corpus()
    corpus["two-components"] = disjoint_union(corpus["random-40"], corpus["star-60"])
    for g in corpus.values():
        for h in (g, relabel_offset(g, 10**9)):
            _solve_everything(Graph.from_data(h.vertices, h.edges))
    with pytest.raises(AssertionError, match="Hopcroft-Tarjan"):
        blocks.is_block_graph(cycle_graph(4))


def _engine_state(st, rg):
    return vars(st), (rg.rid, rg.verts, rg.vheap, rg.bigleaf, rg.nearleaf)


def test_leaf_block_batch_leaves_the_state_of_one_by_one_deletions():
    """Deleting a big leaf block's non-cut members together leaves the
    engine and its region as deleting them one by one does."""
    triangle_on_a_path = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    for g in (random_block_graph(400, seed=9, edge_block_prob=0.3, max_block=9), triangle_on_a_path):
        bd = blocks.block_decomposition(g)
        checked = 0
        for b, (block, cuts) in enumerate(zip(bd.blocks, bd.block_cuts)):
            if len(cuts) != 1 or len(block) < 3:
                continue
            states = []
            for batch in (False, True):
                st = peel._Peel(g, bd)
                (rg,) = st.initial_regions()
                plain = frozenset(x for x in st.bverts[b] if len(st.vblocks[x]) == 1)
                if batch:
                    st.remove_leaf_members(rg, b, plain)
                else:
                    for x in sorted(plain):
                        assert st._remove_vertex(rg, x) == []
                states.append(_engine_state(st, rg))
            assert states[0] == states[1]
            checked += 1
        assert checked > 0


def test_cached_block_index_equals_a_fresh_pass():
    for name, g in golden_corpus().items():
        for h in (g, relabel_offset(g, 10**9)):
            first = blocks.block_decomposition(h)
            _solve_everything(h)
            again = blocks.block_decomposition(h)
            assert again is first, name
            fresh = blocks.block_decomposition(Graph.from_data(h.vertices, h.edges))
            # the decomposition compares every field: blocks, cuts, verdict,
            # incidence, labels
            assert again == fresh, name
            # no peel run changed the start state the runs share
            assert h._peel_start == peel._start_state(fresh), name


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


def structural_big_ant_reference(g, element):
    """is_structural_big_ant as first written: a clique test on the host,
    then a superset test on the element's edges."""
    block = getattr(element, "block", None)
    if block is None:
        return False
    u, v = element.apex_u, element.apex_v
    if u not in block or v not in block:
        return False
    if missing_clique_pair(g, block) is not None:
        return False
    if not element.edges.issuperset(clique_edges(block)):
        return False
    for a, b in element.edges:
        if a in block and b in block:
            continue
        if u not in (a, b) and v not in (a, b):
            return False
    touched = set(block)
    for e in element.edges:
        touched.update(e)
    return touched == set(element.vertices)


def tampered_elements(g, el):
    """Copies of the big ant el that break, or only seem to break, one of
    the conditions of is_structural_big_ant."""
    block, edges = el.block, el.edges
    inside = sorted(e for e in edges if e[0] in block and e[1] in block)
    outside = sorted(el.vertices - block)
    for w in sorted(el.vertices - {el.apex_u})[:3]:  # an apex moved
        yield el._replace(apex_u=w)
        yield el._replace(apex_v=w)
    for e in inside[:2]:  # a clique edge dropped, or written as (b, a)
        yield el._replace(edges=edges - {e})
        yield el._replace(edges=edges - {e} | {e[::-1]})
        yield el._replace(edges=edges | {e[::-1]})
    for w in outside[:2]:  # a block that is not a clique, with or without its pairs
        yield el._replace(block=block | {w})
        yield el._replace(block=block | {w}, edges=edges | {(min(w, x), max(w, x)) for x in block})
    a = min(block)
    yield el._replace(edges=edges | {(a, a)})  # a loop inside the block
    for w in outside[:2]:  # an outside edge at no apex
        x = min(block - {el.apex_u, el.apex_v}, default=w)
        yield el._replace(edges=edges | {(min(w, x), max(w, x))})
        yield el._replace(edges=edges | {(w, w)})
    stray = max(g.vertices) + 1  # a stray vertex, in the host or not
    yield el._replace(vertices=el.vertices | {stray})
    yield el._replace(vertices=el.vertices | {min(g.vertices - el.vertices, default=stray)})


def test_structural_big_ant_matches_its_first_definition():
    verdicts = {True: 0, False: 0}
    for name, g in golden_corpus().items():
        for builder in (min_cointerval_cover, min_threshold_cover):
            cover, _ = builder(g)
            for el in cover.elements:
                assert is_structural_big_ant(g, el) and structural_big_ant_reference(g, el), name
                for bad in tampered_elements(g, el):
                    verdict = is_structural_big_ant(g, bad)
                    assert verdict == structural_big_ant_reference(g, bad), (name, bad)
                    verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


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
            cover, traces = min_cover(g, kind)
            text = json.dumps(cover_to_dict(cover, traces))
            assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_COVER_SHA256[name, kind], (name, kind)
            cases.update(t.case_taken for t in traces)
    assert cases == {"1", "2", "3a", "3b", "3*-2cuts", "3*-many"}


# the same hash on helpers.benchmark_scale_corpus, recorded at commit
# 7f0759e: graphs of the benchmark's size, where runs reach region splits
# and heap states that the small golden corpus and the naive twin do not
BENCHMARK_SCALE_COVER_SHA256 = {
    ("random-5000", "cointerval"): "62292394d568d9ba141524014d9abdfbe37563830bf7625a9ff7c5100ca3de39",
    ("random-5000", "threshold"): "c9e2fa392ecba7331c52686f02317512232ce9ef9ede769c76e1a4f9ea39c5c5",
    ("path-3000", "cointerval"): "2bbf378144af0b19be5dded3c96483cbca7d504d392a0cfa5afea3fc7e26465b",
    ("path-3000", "threshold"): "ae46bfbef889a5c5783fb89e39a78e657f22a8435c7aabb4ac8cd0ee4380fcf6",
    ("caterpillar-3000", "cointerval"): "521485b62760a579a04389e2a9b7fcb8c2bcb5ccfb83b821a76f4ed4acc1fd59",
    ("caterpillar-3000", "threshold"): "0ee4ae33d37f167797d0456eacb884b49cfe62d13d85a039f120c0f968cafa23",
    ("triangle-chain-3001", "cointerval"): "7e928f9e11ba779f28b5a8318809a0a91bcad5e7ab547396824787efe15accf5",
    ("triangle-chain-3001", "threshold"): "4d2358b6e7a64e16d8d27909ab076666dd76eca1f309fba1e3091754d7b2623a",
    ("broom-3000", "cointerval"): "490d22e1ccac538f7254148acb37a8fe0ca004693ca4371227a03a4fe548e014",
    ("broom-3000", "threshold"): "2e5c28ca090db693b84dec56aca028ca71c89b815e03b66d4f20a6e77d42d0fe",
    # recorded at commit d893eb2, before big leaf blocks lost their non-cut
    # members in one batch
    ("blocks-2000", "cointerval"): "8dff4399b9c18ab34519ea24be780be70c4a169349d49ca26c8dc7823a098a5f",
    ("blocks-2000", "threshold"): "3e4bedceb27c3a896806b1a4cb8ab58e3adc0560bc401c1e568a6470acbbf346",
    ("mixed-blocks-3000", "cointerval"): "bcde3e4f1e5769ac857ee4c7a5ece0e920ca1cb1dee0c4024a65e56b0f059691",
    ("mixed-blocks-3000", "threshold"): "637136df83efbd5df6bcebd42d5f9a8939190220f0717c7bbf23853d19553c7b",
}


def test_cover_json_matches_golden_hashes_at_benchmark_scale():
    for name, g in benchmark_scale_corpus().items():
        for kind in (COINTERVAL, THRESHOLD):
            cover, traces = min_cover(g, kind)
            text = json.dumps(cover_to_dict(cover, traces))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == BENCHMARK_SCALE_COVER_SHA256[name, kind], (name, kind)


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
    original = peel.peel_count

    def recording(*args):
        seen.append(gc.isenabled())
        return original(*args)

    # the solvers import the peel engine when they run, so patch it there
    monkeypatch.setattr(peel, "peel_count", recording)
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


def test_count_solves_leave_no_traces_to_collect():
    g = random_block_graph(5000, seed=1)
    coboxicity(g)  # the block index and the peel start state are cached now
    seen = []

    def count_traces(phase, info):
        if phase == "start":
            young = gc.get_objects(info["generation"])
            seen.append(sum(isinstance(o, peel.IterationTrace) for o in young))

    gc.collect()
    gc.callbacks.append(count_traces)
    try:
        coboxicity(g)
        cothdim(g)
    finally:
        gc.callbacks.remove(count_traces)
    # traces still alive when gc.enable() runs are scanned by the collection
    # it lets run, which frees none of them
    assert sum(seen) == 0, seen


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


def _no_recogniser(monkeypatch):
    def refuse(*args):
        raise AssertionError("the general recogniser ran")

    for name in ("is_cointerval", "threshold_order"):
        monkeypatch.setattr(cover_module, name, refuse)


def test_certified_verify_and_box_make_no_recogniser_call(monkeypatch):
    _no_recogniser(monkeypatch)
    graphs = dict(golden_corpus(), **{"star-3000": star_graph(3000)})
    for name, g in graphs.items():
        for kind in (COINTERVAL, THRESHOLD):
            cover, _ = min_cover(g, kind, trace_components=False)
            start = time.perf_counter()
            report = verify_cover(g, cover)
            elapsed = time.perf_counter() - start
            assert report.valid and report.uncertified == (), (name, kind)
            # a certificate check is linear in the element; the recogniser
            # took about 20 s on this star
            assert elapsed < 2.0, (name, kind, elapsed)
            rep = cover_to_box_representation(g, cover)
            assert rep.dimension == len(cover.elements), (name, kind)


def blockless(g, cover):
    """The cover as its JSON would give it with every "block" set to null."""
    payload = cover_to_dict(cover)
    for entry in payload["elements"]:
        entry["block"] = None
    return cover_from_dict(g, payload)


def test_blockless_covers_take_the_one_box_path():
    rng = random.Random(64)
    graphs = [spider_graph(), path_graph(11), star_graph(7)]
    graphs += [random_block_graph(rng.randint(4, 40), seed=6400 + i) for i in range(12)]
    for g in graphs:
        for kind in (COINTERVAL, THRESHOLD):
            cover = blockless(g, min_cover(g, kind)[0])
            assert all(isinstance(el, EdgeSubgraph) for el in cover.elements)
            report = verify_cover(g, cover)
            assert report.valid
            assert report.uncertified == tuple(range(len(cover.elements)))
            rep = cover_to_box_representation(g, cover)
            assert rep.dimension == len(cover.elements)
            assert rep.satisfies(g)
    # an element with no vertices still spans a nonempty range
    g = spider_graph()
    cover = min_cointerval_cover(g)[0]
    cover = Cover(g, cover.elements + (EdgeSubgraph(g, frozenset(), frozenset()),), COINTERVAL)
    rep = cover_to_box_representation(g, cover)
    assert rep.ranges[-1] == (0, 0) and rep.satisfies(g)


def test_blockless_star_verify_memory_is_linear():
    g = star_graph(600)
    for kind in (COINTERVAL, THRESHOLD):
        cover = blockless(g, min_cover(g, kind)[0])
        g.edges  # the host's own edge-set cache, not part of verification
        tracemalloc.start()
        try:
            report = verify_cover(g, cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.valid and report.uncertified == (0,)
        # the recogniser built the element's complement: about 37 MB here
        assert peak < 4 * 1024 * 1024, (kind, peak)


def _tampered(g, el):
    """The element with a clique edge dropped, an apex moved, an extra
    vertex, and no block; each keeps the element a subgraph of g."""
    out = []
    block = sorted(el.block)
    clique = [(a, b) for i, a in enumerate(block) for b in block[i + 1:]]
    if clique:
        out.append(el._replace(edges=el.edges - {clique[len(clique) // 2]}))
    others = [x for x in block if x not in (el.apex_u, el.apex_v)]
    if others:
        out.append(el._replace(apex_u=others[0]))
    spare = sorted(set(g.vertices) - el.vertices)
    if spare:
        out.append(el._replace(vertices=el.vertices | {spare[0]}))
    out.append(EdgeSubgraph(g, el.vertices, el.edges))
    return out


def test_tampered_elements_get_the_recognisers_verdict():
    rng = random.Random(63)
    graphs = [spider_graph(), star_graph(5), path_graph(9)]
    graphs += [random_block_graph(rng.randint(4, 30), seed=6300 + i) for i in range(40)]
    verdicts = set()
    for g in graphs:
        for kind in (COINTERVAL, THRESHOLD):
            cover, _ = (min_cointerval_cover if kind == COINTERVAL else min_threshold_cover)(g)
            for el in cover.elements:
                for bad in _tampered(g, el):
                    report = verify_cover(g, Cover(g, (bad,), kind))
                    eg = Graph.from_data(bad.vertices, bad.edges)
                    ok = is_threshold(eg) if kind == THRESHOLD else is_cointerval(eg) is not None
                    assert report.recognition_failures == (() if ok else (0,))
                    if report.uncertified == ():
                        assert ok  # a certificate is only ever issued to a good element
                    verdicts.add((ok, report.uncertified))
    # the tampering produced elements of every kind of verdict
    assert verdicts == {(True, ()), (True, (0,)), (False, (0,))}


def test_uncertified_element_above_the_bound_raises(monkeypatch):
    g = star_graph(6)
    el = EdgeSubgraph(g, frozenset(g.vertices), g.edges)  # no block: no certificate
    cover = Cover(g, (el,), COINTERVAL)
    monkeypatch.setattr(cover_module, "FALLBACK_MAX_VERTICES", 7)
    assert verify_cover(g, cover).uncertified == (0,)
    monkeypatch.setattr(cover_module, "FALLBACK_MAX_VERTICES", 6)
    with pytest.raises(SizeLimitError):
        verify_cover(g, cover)
    with pytest.raises(SizeLimitError):
        cover_to_box_representation(g, cover)


def test_box_model_memory_is_linear():
    g = random_block_graph(4000, seed=1)
    cover, _ = min_cointerval_cover(g, trace_components=False)
    g.edges  # the host's own edge-set cache, not part of the box model
    tracemalloc.start()
    try:
        rep = cover_to_box_representation(g, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = g.vertex_count * rep.dimension
    assert rep.dimension == len(cover.elements) > 900
    # a dense model holds at least one 8-byte reference per cell; the
    # sparse one stays below one byte per cell
    assert peak < cells, (peak, cells)
    sample = sorted(g.vertices)[::97]
    assert all(len(rep.boxes[v]) == rep.dimension for v in sample)


def test_box_json_memory_is_small_per_cell():
    g = random_block_graph(1000, seed=1)
    cover, _ = min_cointerval_cover(g, trace_components=False)
    rep = cover_to_box_representation(g, cover)
    tracemalloc.start()
    try:
        text = json.dumps(box_to_dict(rep), separators=(",", ":"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = g.vertex_count * rep.dimension
    assert rep.dimension > 200 and len(text) > 4 * cells
    # a [lo, hi] list per cell alone takes 72 bytes (sys.getsizeof([0, 0]))
    assert peak < 48 * cells, (peak, cells)


def test_invariant_failure_names_iteration_region_and_case(monkeypatch, tmp_path, capsys):
    g = random_block_graph(40, seed=1)
    traces = min_cointerval_cover(g)[1]
    first = next(t for t, tr in enumerate(traces) if tr.case_taken == "2")
    original = peel._case_two

    def wrong_plan(st, b):
        step = original(st, b)
        return step[:5] + (step[5] | {-1},) + step[6:]

    monkeypatch.setattr(peel, "_case_two", wrong_plan)
    with pytest.raises(InternalInvariantError) as info:
        min_cointerval_cover(g)
    message = str(info.value)
    assert "removal plan diverges" in message
    assert f"iteration {first}," in message and message.endswith("case 2)")
    assert "region " in message

    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_edgelist(g))
    assert cli.main(["cover", "-i", str(graph_file)]) == 4
    assert f"iteration {first}," in capsys.readouterr().err


# Two three-edge paths 2-3-4-5 and 2-6-7-8 and a pendant path 2-1-0 at
# vertex 2. The first iteration is case 3a on block {1, 2}, which protects
# vertex 2; deleting it leaves two fragments of two blocks each, whose
# scans end in the same round, so the split checks its accounting.
TWO_ARMS = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8)])


def _engine_fault(patch, tmp_path, capsys, g=TWO_ARMS, kind=COINTERVAL):
    """The invariant message of a run of the given kind on g with patch
    applied, which the cover command must report with exit 4."""
    traces = min_cointerval_cover(TWO_ARMS)[1]
    assert (traces[0].case_taken, traces[0].protected_vertex) == ("3a", 2)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_edgelist(g))
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        with pytest.raises(InternalInvariantError) as info:
            min_cover(g, kind)
        capsys.readouterr()
        assert cli.main(["cover", "-i", str(graph_file), "--kind", kind]) == 4
    assert capsys.readouterr().err == f"internal error: {info.value}\n"
    return str(info.value)


def test_invariant_plain_deletion_that_fragments(tmp_path, capsys):
    original = peel._case_three

    def protect_nothing(st, b):
        # delete the protected vertex with the plain ones, which must not
        # fragment the region
        step = original(st, b)
        return step[:6] + (step[6] + [step[7]], None)

    message = _engine_fault(lambda mp: mp.setattr(peel, "_case_three", protect_nothing), tmp_path, capsys)
    assert message == "unexpected region fragmentation at vertex 2 (iteration 0, region 0, case 3a)"


def test_invariant_split_accounting_drift(tmp_path, capsys):
    original = peel._Peel.split

    def drifted(self, rg, seeds):
        rg.verts.add(-1)  # a vertex the fragments cannot account for
        return original(self, rg, seeds)

    message = _engine_fault(lambda mp: mp.setattr(peel._Peel, "split", drifted), tmp_path, capsys)
    assert message == "region accounting drifted across a split (iteration 0, region 0, case 3a)"


def test_invariant_missing_near_leaf_block(tmp_path, capsys):
    original = peel._Peel.pop_near_leaf

    def emptied(self, rg):
        rg.nearleaf.clear()
        return original(self, rg)

    message = _engine_fault(lambda mp: mp.setattr(peel._Peel, "pop_near_leaf", emptied), tmp_path, capsys)
    # the case is chosen with the block, so the location has none
    assert message == "no near-leaf block in a pointed non-star region (iteration 0, region 0)"

    # a triangle with two pendant edges at one vertex has a big leaf block
    # and no near-leaf block, and it is no star
    original_big = peel._Peel.pop_big_leaf

    def no_big_leaf(self, rg):
        rg.bigleaf.clear()
        return original_big(self, rg)

    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    for kind in (COINTERVAL, THRESHOLD):
        patched = _engine_fault(
            lambda mp: mp.setattr(peel._Peel, "pop_big_leaf", no_big_leaf), tmp_path, capsys, g, kind
        )
        assert patched == message


def test_invariant_near_leaf_with_several_attachments(tmp_path, capsys):
    original = peel._case_three

    def all_attached(st, b):
        for x in st.bverts[b]:
            st.nint[x] = 2
        return original(st, b)

    message = _engine_fault(lambda mp: mp.setattr(peel, "_case_three", all_attached), tmp_path, capsys)
    assert message == "near-leaf block with several internal attachments (iteration 0, region 0)"


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
    # an empty block is written as [], not as null, so it reads back as a
    # big ant and not as a blockless element
    entry = payload["elements"][0]
    entry["block"] = []
    empty = cover_from_dict(g, payload)
    assert empty.elements[0].block == frozenset()
    written = cover_to_dict(empty)
    assert written["elements"][0]["block"] == []
    assert cover_from_dict(g, written) == empty


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("vertices", 1.5, "a vertex must be a JSON integer, got 1.5"),
        ("vertices", True, "a vertex must be a JSON integer, got true"),
        ("edges", "0", 'an edge endpoint must be a JSON integer, got "0"'),
        ("block", 0.0, "a block vertex must be a JSON integer, got 0.0"),
        ("u", "1", 'apex u must be a JSON integer, got "1"'),
        ("v", 2.0, "apex v must be a JSON integer, got 2.0"),
    ],
)
def test_cover_json_accepts_only_json_integers(field, value, named):
    g = spider_graph()
    payload = cover_to_dict(min_cointerval_cover(g)[0])
    entry = payload["elements"][0]
    if field == "vertices":
        entry["vertices"].append(value)  # int() made 1.5 and true a vertex
    elif field == "edges":
        entry["edges"][0][0] = value
    elif field == "block":
        entry["block"][0] = value
    else:
        entry[field] = value
    with pytest.raises(InputError) as info:
        cover_from_dict(g, payload)
    assert str(info.value) == f"malformed cover payload: {named}"


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
