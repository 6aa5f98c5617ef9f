"""Cover loop: formula values, oracle equivalence, validity, box models."""

import gc
import hashlib
import json
import random
import time
import tracemalloc
import weakref
from collections import Counter
from itertools import compress

import pytest

from antcover import blocks, cli, peel
from antcover import cover as cover_module
from antcover.cointerval import (
    BigAnt,
    _ant,
    ant_order,
    is_cointerval,
    is_threshold,
    maximal_cointerval_subgraphs,
    maximal_threshold_subgraphs,
    prefix_counts,
)
from antcover.cover import (
    Cover,
    box_to_dict,
    coboxicity,
    cothdim,
    cover_from_dict,
    cover_to_box_representation,
    cover_to_dict,
    min_cointerval_cover,
    min_cover,
    min_threshold_cover,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from antcover.errors import InputError, InternalInvariantError, NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import (
    Graph,
    build_graph,
    disjoint_union,
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
    BatchRecordingPeel,
    benchmark_scale_corpus,
    broom_graph,
    caterpillar_graph,
    complete_graph,
    connected_components,
    counted_run,
    cycle_graph,
    engine_run_tuples,
    free_trees,
    golden_corpus,
    naive_cover,
    path_graph,
    spider_graph,
    star_graph,
    triangle_chain_graph,
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
    """One block decomposition per graph, and so one start state for its
    peel runs, however many calls read them."""
    computed = []
    original = blocks._decompose

    def counting(g):
        computed.append(g)
        return original(g)

    monkeypatch.setattr(blocks, "_decompose", counting)
    large = random_block_graph(60, seed=5)
    small = random_block_graph(9, seed=6)
    graph_file = tmp_path / "large.txt"
    graph_file.write_text(serialize_edgelist(large))

    for fn in (blocks.is_block_graph, coboxicity, cothdim, min_cointerval_cover, min_threshold_cover):
        fn(large)
    # four peel runs, all started from the one cached decomposition
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
    return bd.incidence[0]  # the blocks at the least vertex


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


def test_no_solve_builds_the_id_keyed_views(monkeypatch):
    """The solvers read the decomposition's index fields only; the views
    in vertex ids are left to the callers that ask for them."""

    def refuse(bd):
        raise AssertionError("id-keyed view built")

    for view in ("blocks", "cut_vertices", "block_cuts"):
        monkeypatch.setattr(blocks.BlockDecomposition, view, property(refuse))
    for g in golden_corpus().values():
        for h in (g, relabel_offset(g, 10**9)):
            assert blocks.is_block_graph(h)
            coboxicity(h)
            cothdim(h)
            for kind in (COINTERVAL, THRESHOLD):
                for snapshots in (True, False):
                    min_cover(h, kind, snapshots)
    with pytest.raises(AssertionError, match="id-keyed view"):
        blocks.block_decomposition(path_graph(3)).blocks


class _CheckedPeel(BatchRecordingPeel):
    """The engine, checking at the start of every iteration that each
    vertex's block set is shared with the decomposition until the vertex
    loses a block, and emptied when it is deleted."""

    def __init__(self, bd):
        super().__init__(bd)
        self.bd, self.checks = bd, 0

    def pop_big_leaf(self):
        live = [set() for _ in self.vblocks]
        for i, members in enumerate(self.bverts):
            for x in members:
                live[x].add(i)
        deleted = set().union(*self.batches)
        for x, held in enumerate(self.vblocks):
            if x in deleted:
                assert held == () and not live[x]
            elif live[x] == set(self.bd.incidence[x]):
                assert held is self.bd.incidence[x]
            else:
                assert type(held) is set and held == live[x]
        self.checks += 1
        return super().pop_big_leaf()


def _recount_mismatches(st, bd):
    """Where the engine's state differs from a recount of the residual
    graph: the live members of each block of the decomposition, without
    the deleted vertices (those whose block set was emptied). Each entry
    names the field, the block or vertex, the engine's value and the
    recount's."""
    gone = [held == () for held in st.vblocks]
    live = [[x for x in b if not gone[x]] for b in bd.members]
    alive = [len(m) >= 2 for m in live]
    at = [set() for _ in gone]  # the live blocks at each vertex
    for i in compress(range(len(live)), alive):
        for x in live[i]:
            at[x].add(i)
    bcut = [sum(len(at[x]) >= 2 for x in m) for m in live]
    is_int = [a and c >= 2 for a, c in zip(alive, bcut)]
    nint = [sum(is_int[i] for i in held) for held in at]
    catt = [f and sum(nint[x] >= 2 for x in m) for f, m in zip(is_int, live)]
    out = [("alive", i, st.alive[i], a) for i, a in enumerate(alive) if st.alive[i] != a]
    for i in compress(range(len(live)), alive):
        out += [
            (name, i, mine, theirs)
            for name, mine, theirs in (
                ("members", st.bverts[i], set(live[i])),
                ("bcut", st.bcut[i], bcut[i]),
                ("is_int", st.is_int[i], is_int[i]),
            )
            if mine != theirs
        ]
        if is_int[i] and st.catt[i] != catt[i]:
            out.append(("catt", i, st.catt[i], catt[i]))
    for x, held in enumerate(at):
        if held and set(st.vblocks[x]) != held:
            out.append(("vblocks", x, st.vblocks[x], held))
        if held and st.nint[x] != nint[x]:
            out.append(("nint", x, st.nint[x], nint[x]))
    # every eligible block has a heap entry keyed at most its least member
    for heap, name, eligible in (
        (st.bigleaf, "bigleaf", [a and c == 1 and len(m) >= 3 for a, c, m in zip(alive, bcut, live)]),
        (st.nearleaf, "nearleaf", [f and c <= 1 for f, c in zip(is_int, catt)]),
    ):
        keys = {}
        for key, i in heap:
            keys[i] = min(key, keys.get(i, key))
        for i in compress(range(len(live)), eligible):
            key, least = keys.get(i), min(live[i])
            if key is None or key > least:
                out.append((name, i, key, least))
    return out


class _RecountedPeel(BatchRecordingPeel):
    """The engine, comparing at the start of every iteration the state it
    maintains with a recount from scratch."""

    def __init__(self, bd):
        super().__init__(bd)
        self.bd, self.checks = bd, 0

    def pop_big_leaf(self):
        assert _recount_mismatches(self, self.bd) == []
        self.checks += 1
        return super().pop_big_leaf()


def _checked_graphs():
    rng = random.Random(71)
    graphs = [
        random_block_graph(rng.randint(2, 80), seed=7100 + i, edge_block_prob=rng.random(), max_block=rng.randint(2, 9))
        for i in range(40)
    ]
    return graphs + [path_graph(30), caterpillar_graph(12, 3), broom_graph(15, 8), triangle_chain_graph(14)]


def _checked_runs(engine, graphs):
    """Count runs of both kinds over graphs on the given engine class, as
    (engine, traces) pairs, where traces are those of the cover run. The
    engine checks itself once per iteration and once when no case is left,
    and the count run deletes the cover run's removed sets, batch by
    batch, in the same order."""
    out = []
    for g in graphs:
        bd = blocks.block_decomposition(g)
        for kind in (COINTERVAL, THRESHOLD):
            _, traces = peel_cover(g, bd, kind, False)
            size, st = counted_run(bd, kind, engine)
            assert st.checks == size + 1 == len(traces) + 1
            assert st.removed_sets() == [t.removed for t in traces]
            out.append((st, traces))
    return out


def test_vertex_block_sets_are_copied_only_when_a_block_is_lost():
    assert _checked_runs(_CheckedPeel, _checked_graphs())


def test_engine_state_equals_a_recount_at_every_iteration():
    """Each iteration deletes its removed set in one batch, and the state
    it leaves for the next is the one the residual graph determines."""
    union = disjoint_union(disjoint_union(random_block_graph(60, seed=72), build_graph(1, [])), caterpillar_graph(8, 2))
    graphs = _checked_graphs() + [relabel_offset(union, 10**6)]
    for st, traces in _checked_runs(_RecountedPeel, graphs):
        ids = st.ids or range(len(st.vblocks))
        deleted = {ids[x] for x, held in enumerate(st.vblocks) if held == ()}
        assert deleted == set().union(*(t.removed for t in traces))


def test_cached_block_index_equals_a_fresh_pass():
    for name, g in golden_corpus().items():
        for h in (g, relabel_offset(g, 10**9)):
            first = blocks.block_decomposition(h)
            _solve_everything(h)
            again = blocks.block_decomposition(h)
            assert again is first, name
            fresh = blocks.block_decomposition(Graph.from_data(h.vertices, h.edges))
            # the decomposition compares every field: blocks, cuts, verdict,
            # incidence, labels, and the start state of the peel runs, which
            # no run changed
            assert again == fresh, name


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


def tampered_elements(g, el):
    """Copies of the big ant el that break, or only seem to break, its
    shape: apexes, clique, edges at the apexes, vertices."""
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


def test_validate_run_accepts_every_solver_run():
    # each graph also with ids far from zero and an isolated vertex
    for corpus in (golden_corpus(), benchmark_scale_corpus()):
        for name, g in corpus.items():
            far = disjoint_union(relabel_offset(g, 10**6), build_graph(1, []))
            for h in (g, far):
                for kind in (COINTERVAL, THRESHOLD):
                    validate_run(h, *min_cover(h, kind))


def test_validate_run_names_the_iteration_of_every_tampered_element():
    """Each copy from tampered_elements that differs from its original,
    put in place of it in a solver run, fails validate_run at the
    iteration of that element."""
    caught = 0
    for name, g in golden_corpus().items():
        for builder in (min_cointerval_cover, min_threshold_cover):
            cover, traces = builder(g)
            validate_run(g, cover, traces)
            for t, trace in enumerate(traces):
                k = trace.added_element_index
                el = cover.elements[k]
                for bad in [bad for bad in tampered_elements(g, el) if bad != el]:
                    elements = cover.elements[:k] + (bad,) + cover.elements[k + 1:]
                    with pytest.raises(InputError, match=f"^iteration {t}[ :]"):
                        validate_run(g, cover._replace(elements=elements), traces)
                    caught += 1
    assert caught > 10_000


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
# unless a change says why they differ. The entries of graphs whose runs
# work in several components at once were re-recorded after commit 59e8555,
# when the peel loop took its cases in one global order: their iterations
# come in a new order, and RUN_PAIRS_SHA256 pins that nothing else changed
GOLDEN_COVER_SHA256 = {
    ("random-40", "cointerval"): "a6ab0f34297f059406fcfd219eb37e3236f9f96f97daaafcda742ad9e799ea67",
    ("random-40", "threshold"): "cd2b2b3fe0b5f5307af8e2139fe01058e391e2f277367f6552e4fdc08b49b4d9",
    ("random-150", "cointerval"): "298ca15d47b9beaf69ffe717e647be2d93b965621f825c3c846287d364359ad9",
    ("random-150", "threshold"): "96336b5423733212752530f05b9a335a44679e9dd63cb8921f9aee8f685d4b70",
    ("random-300", "cointerval"): "6dc0443abad97af14e264758188acd94b4f01420138bb53d0ae63c18d8aa111f",
    ("random-300", "threshold"): "12f8f1780879af96ff445f3c59a1ab8129f647902d02f29cd4f93336bb5547bf",
    ("random-edgy-200", "cointerval"): "864bd47e021db389459fa66973b6e4a31e647c0b96b68ca27e8aa5e1491814b1",
    ("random-edgy-200", "threshold"): "c171ab81de02f5d954d387291d82e224f7e4cb4583beb91b93d123ae6be7b9f0",
    ("random-cliquey-200", "cointerval"): "5a0bbbfb2a246651fb18bc939868a2eefc426f6043d8080806d8b4e01655267e",
    ("random-cliquey-200", "threshold"): "242455ae5d16b50f72f62bae10de26973948a06848f098b6a4e71a16103b9861",
    ("path-100", "cointerval"): "860d9924ca44475ba043fde4a2c45c95bfed7c58c20871150f10f3202eafb50e",
    ("path-100", "threshold"): "5f3910df56f889af53f80eebe9f94d5474e0d0cf61be8fa9b380a156392322d9",
    ("star-60", "cointerval"): "1f99024e8dac4a2a468cb79ad238901c44685836f64b6aa5fd968801091cdf3b",
    ("star-60", "threshold"): "7e1f754557a0544d3563d7197558328249523470d9524c7e12273c6f1f236cd3",
    ("caterpillar-30x3", "cointerval"): "186f786c28c98c07459c55cd26e6c5bb5f13abba5dcf81f644360a5bb42897d8",
    ("caterpillar-30x3", "threshold"): "3919c4fb4c364aa95f80c3ad08861222f55a26c104d8471f9b380a541c5fea90",
    ("large-blocks-300", "cointerval"): "643f7da13ec5b25d22fbc71a1f484948e75d3f78c95fe0949103cf5ffe1ac09d",
    ("large-blocks-300", "threshold"): "585f691fc5cbe0d8d212eb4c273a922cba8c1e58a2261397ca9deb1178269f46",
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
# 7f0759e (random-5000 and mixed-blocks-3000 re-recorded after 59e8555, as
# above): graphs of the benchmark's size, where runs reach component
# splits and heap states that the small golden corpus and the naive twin
# do not
BENCHMARK_SCALE_COVER_SHA256 = {
    ("random-5000", "cointerval"): "95039834b69ea5e09a5a5232f9d2e376b759c8dcaaef24abcc31a4e336acbc38",
    ("random-5000", "threshold"): "d33c63bd8f832b44008db8ef1f4e0818fd990326f2a997db39eb06f965013a81",
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
    ("mixed-blocks-3000", "cointerval"): "6d61028ca4113cd4b220c0a7ab9e2a5249bbe893edcb66f3b0c1f68c30c7cde0",
    ("mixed-blocks-3000", "threshold"): "6aa02e856e5481afa49705dd5440ccf4f81030795caf9bb39752b37523bdcdd4",
}


def test_cover_json_matches_golden_hashes_at_benchmark_scale():
    for name, g in benchmark_scale_corpus().items():
        for kind in (COINTERVAL, THRESHOLD):
            cover, traces = min_cover(g, kind)
            text = json.dumps(cover_to_dict(cover, traces))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == BENCHMARK_SCALE_COVER_SHA256[name, kind], (name, kind)


def run_pairs_digest(cover, traces):
    """sha256 of a run's (element, trace) pairs in their JSON form, sorted,
    with the element index dropped from each trace: what every iteration
    did, whatever order the iterations ran in."""
    payload = cover_to_dict(cover, traces)
    pairs = []
    for t in payload["traces"]:
        element = payload["elements"][t.pop("element")]
        pairs.append(json.dumps([element, t]))
    pairs.sort()
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()


# run_pairs_digest on both corpora, recorded at commit 59e8555, before the
# peel loop dropped its per-component regions for one global pair of leaf
# heaps: that change reorders iterations across components and must change
# nothing else, component snapshots included
RUN_PAIRS_SHA256 = {
    ("random-40", "cointerval"): "d7fdff9fc0def3cee566016d13ae75bb58c886684368a3e4f3d346e81e01a2e8",
    ("random-40", "threshold"): "e8e69a3e9caf91d77a70c11dee41950ad471f311e89105c04529056d8442a549",
    ("random-150", "cointerval"): "47e71f22032d497c44158652bb0b68526bba332ba0bb065a9d30d8103a019a4a",
    ("random-150", "threshold"): "671a98e167892f4fa7f8d17b17dc787b72540ea710ccb7f6bb278a033340b87b",
    ("random-300", "cointerval"): "b9f020c990879a27fdd94486c0ebf9f4711aed470abab1380f121cbe389fe521",
    ("random-300", "threshold"): "27a1ff24e443b4793306454209fb3bcc2d924b643facd93132e4b15112c95b1c",
    ("random-edgy-200", "cointerval"): "481d5df83fdb6bcc29b6da8795e17ac9327d940cfbcaa2c0fb7b0be81964173a",
    ("random-edgy-200", "threshold"): "caa4b4f5dc4f56e5c60e53f2920296db34bc0a45eeb1c8dd55b6c63915c8d063",
    ("random-cliquey-200", "cointerval"): "d866cb01755bcbe8d31580e5a280cc24cc90726f36697c0b755ab638f9484e1b",
    ("random-cliquey-200", "threshold"): "2a2837a1b363f96606bd7fe6ccdb836d197d55e973f51fa95ff4b3ecd9ec712b",
    ("path-100", "cointerval"): "ce3cf9276a9924ea4b1e9d240ea208bf017bf857978b01b5d827fb4aa619b44a",
    ("path-100", "threshold"): "62e515df51fec3a17fc0333eb68ed3970935c17c5a7238a5c04b73a9ebd8b237",
    ("star-60", "cointerval"): "1a739bb41489f983f376dfd92d1d6c43a0208d191f8566f5dc897eac20633cef",
    ("star-60", "threshold"): "1a739bb41489f983f376dfd92d1d6c43a0208d191f8566f5dc897eac20633cef",
    ("caterpillar-30x3", "cointerval"): "ced8f1d9fe6e295bcb218c59176a8e382de2986cee49b7758a12246ce65566b1",
    ("caterpillar-30x3", "threshold"): "3ae741660b61b4bffab99ad8488499211dac76911d58f0e47629e485a391ec83",
    ("large-blocks-300", "cointerval"): "cab254ac582c1e221518be908653f31c9f055e68a79f76594faa19d2be26ce7e",
    ("large-blocks-300", "threshold"): "cab254ac582c1e221518be908653f31c9f055e68a79f76594faa19d2be26ce7e",
    ("random-5000", "cointerval"): "7689e0840d90a60b73a3e38e757528c9360798709902ca8f5dd52f6f41dcd42e",
    ("random-5000", "threshold"): "870a7e088f84666700555843933595467341b3ba87436c70f738d8a3ff4e1109",
    ("path-3000", "cointerval"): "0ac4ed2425eb3872723a99b4bee904c456ad2ec8e7b3597542e3baf9c91090dc",
    ("path-3000", "threshold"): "ea131cf16e85bcda84c2048b0948f90266ae75f57bebfb77e982a5de82fbea18",
    ("caterpillar-3000", "cointerval"): "f072784761a4541cdf07b15bffdfa9abf4dafbd4c0dab7e7a2419acec49cb60d",
    ("caterpillar-3000", "threshold"): "1f38a0baf42a407071a51da7778ad524388c3e096ee6f14eeddd0032edd443cb",
    ("triangle-chain-3001", "cointerval"): "4cbc4e3a74c58cab7455d31c49008bdc5d3448dcedb8a8bb2a32a8df1c20b450",
    ("triangle-chain-3001", "threshold"): "fc7dd0672139a2e2551e8c6b1f7fb6618b725bf8db3cd283c9d0e49e5c7172a8",
    ("broom-3000", "cointerval"): "9904a586f61beded14b754e40f20599d8d85bdbb44295eb270caa04e1d7c6aa1",
    ("broom-3000", "threshold"): "cb37888f4b649480a5ddb5364ce7af78813fbac50d0609ed83ad8d431bc2e866",
    ("blocks-2000", "cointerval"): "a559cb94e3e3fe74bfefb7f915999cbfee8b4e4c0255c63a50d753f3171bc418",
    ("blocks-2000", "threshold"): "a559cb94e3e3fe74bfefb7f915999cbfee8b4e4c0255c63a50d753f3171bc418",
    ("mixed-blocks-3000", "cointerval"): "9b260b8fd3b14e3d4baac7903900a2b90129e4e79df86053784cc0287479f118",
    ("mixed-blocks-3000", "threshold"): "c53359156008a2b8860ac132194384c2228461078601cab0cfc4415e62d199ac",
}


def test_run_pairs_match_their_order_free_digests():
    for corpus in (golden_corpus(), benchmark_scale_corpus()):
        for name, g in corpus.items():
            for kind in (COINTERVAL, THRESHOLD):
                digest = run_pairs_digest(*min_cover(g, kind))
                assert digest == RUN_PAIRS_SHA256[name, kind], (name, kind)


def test_count_path_takes_the_same_iterations():
    rng = random.Random(56)
    for i in range(60):
        g = random_block_graph(rng.randint(2, 150), seed=2200 + i)
        bd = blocks.block_decomposition(g)
        for kind, value in ((COINTERVAL, coboxicity), (THRESHOLD, cothdim)):
            elements, traces = peel_cover(g, bd, kind, False)
            size, st = counted_run(bd, kind)
            assert st.removed_sets() == [t.removed for t in traces]  # same batches, same order
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
    coboxicity(g)  # the block decomposition, start state included, is cached now
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


def test_count_run_keeps_nothing_per_iteration():
    """Beyond the engine state, a count run holds only what one iteration
    needs: it keeps no trace or element per iteration, which took its
    tracemalloc peak to about 1.8x the state."""
    g = random_block_graph(20_000, seed=1)
    bd = blocks.block_decomposition(g)  # start state included
    tracemalloc.start()
    try:
        st = peel._Peel(bd)
        state = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del st
    for kind in (COINTERVAL, THRESHOLD):
        tracemalloc.start()
        try:
            peel_count(bd, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * state, (kind, peak / state)


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
        (BigAnt(frozenset({1, 2}), 1, 1, frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)})),),
        "cointerval",
    )
    report = verify_cover(g, missing)
    assert not report.valid and report.uncovered == {(2, 3)}

    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    bogus = Cover(
        two_k2,
        (BigAnt(frozenset({0, 1}), 0, 1, frozenset(range(4)), two_k2.edges),),
        "cointerval",
    )
    report = verify_cover(two_k2, bogus)
    assert not report.valid and report.recognition_failures == (0,)

    foreign = Cover(
        g,
        (BigAnt(frozenset({0, 1}), 0, 0, frozenset({0, 1}), frozenset({(0, 2)})),),
        "cointerval",
    )
    assert verify_cover(g, foreign).not_subgraphs == (0,)

    outside = Cover(
        g,
        (BigAnt(frozenset({0, 1}), 0, 1, frozenset({0, 1, 99}), frozenset({(0, 1)})),),
        "cointerval",
    )
    report = verify_cover(g, outside)
    assert report.not_subgraphs == (0,) and not report.valid


def test_certified_verify_and_box_make_no_recogniser_call():
    # cover.py has no path to the general recogniser; that verify and boxrep
    # never import it is checked in a child process in test_cli.py
    graphs = dict(golden_corpus(), **{"star-3000": star_graph(3000)})
    for name, g in graphs.items():
        for kind in (COINTERVAL, THRESHOLD):
            cover, _ = min_cover(g, kind, trace_components=False)
            start = time.perf_counter()
            report = verify_cover(g, cover)
            elapsed = time.perf_counter() - start
            assert report.valid, (name, kind)
            # a certificate check is linear in the element; the recogniser
            # took about 20 s on this star
            assert elapsed < 2.0, (name, kind, elapsed)
            rep = cover_to_box_representation(g, cover)
            assert rep.dimension == len(cover.elements), (name, kind)


def test_blockless_covers_fail_verify_and_the_box_model():
    """A cover element whose block is null or missing is malformed input,
    named by its index, before verify or the box model reads the cover:
    the solvers only ever write big ants."""
    rng = random.Random(64)
    graphs = [spider_graph(), path_graph(11), star_graph(7)]
    graphs += [random_block_graph(rng.randint(4, 40), seed=6400 + i) for i in range(12)]
    empty = {"block": None, "u": None, "v": None, "vertices": [], "edges": []}
    for g in graphs:
        for kind in (COINTERVAL, THRESHOLD):
            payload = cover_to_dict(min_cover(g, kind)[0])
            entries = payload["elements"]
            cases = [(len(entries), entries + [empty])]  # nor has an element with no vertices
            for i in sorted({0, len(entries) - 1}):
                nulled = dict(entries[i], block=None)
                dropped = {key: x for key, x in entries[i].items() if key != "block"}
                cases += [(i, entries[:i] + [bad] + entries[i + 1:]) for bad in (nulled, dropped)]
            for i, elements in cases:
                with pytest.raises(InputError) as info:
                    cover_from_dict(g, dict(payload, elements=elements, size=len(elements)))
                assert str(info.value) == f"malformed cover payload: cover element {i} has no block"


def test_star_verify_memory_is_linear():
    g = star_graph(600)
    for kind in (COINTERVAL, THRESHOLD):
        cover = min_cover(g, kind)[0]
        g.edges  # the host's own edge-set cache, not part of verification
        tracemalloc.start()
        try:
            report = verify_cover(g, cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.valid and len(cover.elements) == 1
        # a complement of the element would take about 37 MB here
        assert peak < 4 * 1024 * 1024, (kind, peak)


def _tampered(g, el):
    """The element with a clique edge dropped, an apex moved, and an extra
    vertex; each keeps the element a subgraph of g."""
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
    return out


def test_tampered_elements_get_the_recognisers_verdict():
    """verify accepts an element exactly when the order of its block and
    apexes passes prefix_counts; the general recogniser, kept as the
    reference, accepts every such element too."""
    rng = random.Random(63)
    graphs = [spider_graph(), star_graph(5), path_graph(9)]
    graphs += [random_block_graph(rng.randint(4, 30), seed=6300 + i) for i in range(40)]
    verdicts = Counter()
    for g in graphs:
        for kind in (COINTERVAL, THRESHOLD):
            threshold = kind == THRESHOLD
            cover, _ = min_cover(g, kind)
            for el in cover.elements:
                for bad in _tampered(g, el):
                    report = verify_cover(g, Cover(g, (bad,), kind))
                    order = ant_order(bad)
                    certified = prefix_counts(bad.vertices, bad.edges, order, threshold) is not None
                    assert report.recognition_failures == (() if certified else (0,))
                    eg = Graph.from_data(bad.vertices, bad.edges)
                    ok = is_threshold(eg) if threshold else is_cointerval(eg) is not None
                    assert ok or not certified  # a certificate is only issued to a good element
                    verdicts[certified, ok] += 1
    # the tampering produced elements of every kind of verdict; 458 that
    # the recogniser accepts have no certificate, and verify rejects them
    assert verdicts == {(True, True): 546, (False, True): 458, (False, False): 83}


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
    original = peel._Peel.remove_all

    def faulty(st, removed):
        # the first case-2 deletion fails before it deletes anything
        if removed == traces[first].removed:
            raise InternalInvariantError("injected")
        original(st, removed)

    monkeypatch.setattr(peel._Peel, "remove_all", faulty)
    messages = []
    for solve in (min_cointerval_cover, coboxicity):  # the cover and the count loop
        with pytest.raises(InternalInvariantError) as info:
            solve(g)
        messages.append(str(info.value))
    message = messages[0]
    assert messages[1] == message
    assert message.startswith("injected (")
    assert f"iteration {first}," in message and message.endswith("case 2)")
    assert "region " in message

    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_edgelist(g))
    assert cli.main(["cover", "-i", str(graph_file)]) == 4
    assert f"iteration {first}," in capsys.readouterr().err


# Two three-edge paths 2-3-4-5 and 2-6-7-8 and a pendant path 2-1-0 at
# vertex 2. The first iteration is case 3a on block {1, 2}, which protects
# vertex 2.
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


def test_invariant_missing_near_leaf_block(tmp_path, capsys):
    original = peel._Peel.pop_near_leaf

    def emptied(self):
        self.nearleaf.clear()
        return original(self)

    message = _engine_fault(lambda mp: mp.setattr(peel._Peel, "pop_near_leaf", emptied), tmp_path, capsys)
    # the case is chosen with the block, so the location has none
    assert message == "no near-leaf block in a pointed non-star region (iteration 0, region 0)"

    # a triangle with two pendant edges at one vertex has a big leaf block
    # and no near-leaf block, and it is no star
    original_big = peel._Peel.pop_big_leaf

    def no_big_leaf(self):
        self.bigleaf.clear()
        return original_big(self)

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

    def patch(mp):
        mp.setattr(peel, "_case_three", all_attached)

    message = _engine_fault(patch, tmp_path, capsys)
    assert message == "near-leaf block with several internal attachments (iteration 0, region 0)"

    # the same fault at iteration 1, in the second component: a triangle
    # with a pendant edge takes case 2 first, and the region is named by
    # the least vertex of the faulty block's component, in ids
    paw = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    two = disjoint_union(paw, TWO_ARMS)
    message = _engine_fault(patch, tmp_path, capsys, two)
    assert message == "near-leaf block with several internal attachments (iteration 1, region 4)"
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        with pytest.raises(InternalInvariantError, match=r"\(iteration 1, region 1000004\)$"):
            min_cointerval_cover(relabel_offset(two, 10**6))


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


def test_box_representation_of_another_vertex_set_is_not_satisfied():
    g = path_graph(4)
    rep = cover_to_box_representation(g, min_cointerval_cover(g)[0])
    assert rep.satisfies(g)
    # a vertex the model lacks, or a model vertex the graph lacks
    assert not rep.satisfies(disjoint_union(g, build_graph(1, [])))
    assert not rep.satisfies(path_graph(3))


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
    # big ant and not as an element without a block
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
        ("vertices", 1.5, 'a vertex in "vertices" must be a JSON integer, got 1.5'),
        ("vertices", True, 'a vertex in "vertices" must be a JSON integer, got true'),
        ("edges", "0", 'an edge endpoint must be a JSON integer, got "0"'),
        ("block", 0.0, 'a vertex in "block" must be a JSON integer, got 0.0'),
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
    assert str(info.value) == f"malformed cover payload: cover element 0: {named}"


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
    # an index outside the cover must not wrap around or raise IndexError
    for index in (-1, len(cover.elements)):
        bad = [traces[0]._replace(added_element_index=index)] + traces[1:]
        with pytest.raises(InputError, match=f"^iteration 0 names element {index}, not element 0$"):
            validate_run(g, cover, bad)
    # a vertex the graph never had is not a vertex removed twice
    bad = [traces[0]._replace(removed=traces[0].removed | {99})] + traces[1:]
    with pytest.raises(InputError, match=r"^iteration 0 removed vertices not in the graph: \[99\]$"):
        validate_run(g, cover, bad)
    bad = traces[:1] + [traces[1]._replace(removed=traces[1].removed | traces[0].removed)]
    with pytest.raises(InputError, match="^iteration 1 removed vertices twice$"):
        validate_run(g, cover, bad)


def test_validate_run_checks_each_component_snapshot_exactly(monkeypatch):
    """A snapshot one vertex short or one vertex over fails, naming the
    earliest such iteration; a run with no snapshots skips the walk."""
    g = disjoint_union(path_graph(7), build_graph(2, []))  # 7 and 8 isolated
    cover, traces = min_cointerval_cover(g)
    validate_run(g, cover, traces)
    first, last = traces[0].component, traces[-1].component
    for t, wrong in ((0, first - {min(first - traces[0].removed)}), (0, first | {7}), (1, last | {0})):
        bad = list(traces)
        bad[t] = bad[t]._replace(component=wrong)
        with pytest.raises(InputError, match=f"^iteration {t}: its component is not the one it worked in$"):
            validate_run(g, cover, bad)
    both = [traces[0]._replace(component=first | {7}), traces[1]._replace(component=last | {0})]
    with pytest.raises(InputError, match="^iteration 0: its component"):
        validate_run(g, cover, both)

    def no_walk(*args):
        raise AssertionError("walked a run without snapshots")

    monkeypatch.setattr(cover_module, "_component_walk", no_walk)
    validate_run(g, cover, [trace._replace(component=None) for trace in traces])


def _extra_element(g, cover, traces):
    """One element more than the run has iterations."""
    return cover._replace(elements=cover.elements + cover.elements[:1]), traces


def _swapped_elements(g, cover, traces):
    """Elements 0 and 1 swapped, each trace still naming its own ant."""
    first, second, *rest = cover.elements
    swapped = [traces[0]._replace(added_element_index=1), traces[1]._replace(added_element_index=0)]
    return cover._replace(elements=(second, first, *rest)), swapped + traces[2:]


def _apex_only_removal(g, cover, traces):
    """K3 peeled by its one-apex ant with only the apex removed: the ant
    holds edge (1, 2), but no iteration removes 1 or 2."""
    g = complete_graph(3)
    cover, traces = min_threshold_cover(g)
    return cover, [traces[0]._replace(removed=frozenset({cover.elements[0].apex_u}))]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_extra_element, "the run has 2 traces for 3 elements"),
        (_swapped_elements, "iteration 0 names element 1, not element 0"),
        (_apex_only_removal, r"edge \(1, 2\) is left between vertices that no iteration removed"),
    ],
    ids=["extra-element", "another-iterations-element", "edge-never-removed"],
)
def test_validate_run_walks_traces_and_elements_in_step(tamper, message):
    """Each cover below covers its graph and passes verify_cover, and each
    trace names an element that is its residual big ant; the run is still
    not the one the cover came from."""
    g = path_graph(7)
    cover, traces = min_cointerval_cover(g)
    assert len(cover.elements) == 2
    cover, traces = tamper(g, cover, traces)
    assert verify_cover(cover.host, cover).valid
    with pytest.raises(InputError, match=f"^{message}$"):
        validate_run(cover.host, cover, traces)


@pytest.mark.parametrize(
    "g, kind, t, field, value, message",
    [
        (path_graph(7), COINTERVAL, 0, "case_taken", "zzz", "iteration 0 takes case 'zzz', which no cointerval run has"),
        (path_graph(7), THRESHOLD, 1, "case_taken", "3a", "iteration 1 takes case '3a', which no threshold run has"),
        (path_graph(7), COINTERVAL, 1, "protected_vertex", -5, "iteration 1 protects -5, which case 3a does not"),
        # iteration 1 is case 3b over block {0, 2, 3, 4} with apexes 2 and 3,
        # and it removes 4 as well
        (random_block_graph(12, seed=4), COINTERVAL, 1, "protected_vertex", 4, "iteration 1 protects 4, which case 3b does not"),
        # a second apex that is no cut of a case-2 leaf block, or that is the
        # leaf of a case-1 edge, adds no edge to the ant; iteration 0 of
        # either kind is case 2 over block {0, 10, 11} with apex 0
        (random_block_graph(60, seed=5), THRESHOLD, 0, "apexes", (0, 10), r"iteration 0 names apexes \[0, 10\], but case 2 takes one apex"),
        (random_block_graph(60, seed=5), COINTERVAL, 0, "apexes", (0, 11), r"iteration 0 names apexes \[0, 11\], but case 2 takes one apex"),
        (path_graph(7), THRESHOLD, 2, "apexes", (4, 5), r"iteration 2 names apexes \[4, 5\], but case 1 takes one apex"),
        (random_block_graph(12, seed=4), COINTERVAL, 2, "apexes", (0, 5), r"iteration 2 names apexes \[0, 5\], but case 1 takes one apex"),
        # an apex named twice leaves the ant as it is
        (path_graph(7), THRESHOLD, 0, "apexes", (1, 1), r"iteration 0 names apexes \[1, 1\], but case 3\*-2cuts takes one apex"),
        (path_graph(7), COINTERVAL, 0, "apexes", (1, 1, 2), r"iteration 0 names apexes \[1, 1, 2\], but case 3a takes two distinct apexes"),
    ],
    ids=[
        "unknown-case", "cointerval-case-in-threshold-run", "protected-vertex-outside-the-graph",
        "removed-protected-vertex-in-3b", "two-apex-ant-in-threshold-case-2", "two-apex-ant-in-cointerval-case-2",
        "two-apex-ant-in-threshold-case-1", "two-apex-ant-in-cointerval-case-1", "apex-named-twice-in-threshold-run",
        "apex-named-twice-in-3a",
    ],
)
def test_validate_run_checks_each_case_and_protected_vertex(g, kind, t, field, value, message):
    cover, traces = min_cover(g, kind)
    bad = traces[:t] + [traces[t]._replace(**{field: value})] + traces[t + 1:]
    if field == "apexes":
        # the element follows its trace: the residual big ant over its
        # block and the new apexes, so that only the apex count is wrong
        alive = g.vertices - set().union(*(tr.removed for tr in traces[:t]))
        el = _ant(cover.elements[t].block, value, lambda a: g.neighbors(a) & alive)
        cover = cover._replace(elements=(*cover.elements[:t], el, *cover.elements[t + 1:]))
    with pytest.raises(InputError, match=f"^{message}$"):
        validate_run(g, cover, bad)


def test_validate_run_catches_a_removal_outside_the_element():
    # vertex 7 is isolated, so removing it too deletes no residual edge
    # that the element misses; without snapshots, only the element check
    # sees it
    g = disjoint_union(path_graph(7), build_graph(1, []))
    cover, traces = min_cointerval_cover(g, trace_components=False)
    validate_run(g, cover, traces)
    bad = [traces[0]._replace(removed=traces[0].removed | {7})] + traces[1:]
    with pytest.raises(InputError, match="^iteration 0 removed vertices outside its element$"):
        validate_run(g, cover, bad)


def test_validate_run_refuses_a_kept_apex_or_a_false_block_before_building_its_ant():
    g = path_graph(7)
    cover, traces = min_cointerval_cover(g)
    kept = traces[0]._replace(removed=traces[0].removed - {traces[0].apexes[0]})
    with pytest.raises(InputError, match="^iteration 0: its element's apexes are not removed vertices of a residual block$"):
        validate_run(g, cover, [kept] + traces[1:])
    # one element of a star that claims the whole star as its block: found
    # at the first missing pair, not by listing all 4.5 million of them
    n = 3_000
    star = build_graph(n, [(0, i) for i in range(1, n)])
    cover, traces = min_threshold_cover(star)
    whole = cover._replace(elements=(cover.elements[0]._replace(block=frozenset(range(n))),))
    start = time.perf_counter()
    with pytest.raises(InputError, match="^iteration 0: its element's block is not a clique of the graph$"):
        validate_run(star, whole, traces)
    assert time.perf_counter() - start < 0.5


def test_component_snapshots_match_a_from_scratch_reference():
    """Each replayed snapshot is the component of the residual graph
    through the iteration's removed vertices, without isolated vertices."""
    rng = random.Random(65)
    graphs = [random_block_graph(rng.randint(2, 60), seed=6500 + i) for i in range(40)]
    graphs += [disjoint_union(graphs[i], graphs[i + 1]) for i in range(0, 20, 2)]
    graphs += [
        disjoint_union(disjoint_union(graphs[i], build_graph(2, [])), graphs[i + 1])
        for i in range(20, 30, 2)
    ]
    graphs += [relabel_offset(disjoint_union(build_graph(1, []), g), 10**9) for g in graphs[30:35]]
    for g in graphs:
        for kind in (COINTERVAL, THRESHOLD):
            traces = min_cover(g, kind)[1]
            alive = set(g.vertices)
            for t in traces:
                h = g.induced(alive)
                through = set().union(*(c for c in connected_components(h) if c & t.removed))
                assert t.component == {v for v in through if h.degree(v)}
                alive -= t.removed


def test_star_cover_single_element():
    cover, traces = min_threshold_cover(star_graph(4))
    assert len(cover.elements) == 1
    assert traces[0].case_taken == "1"
