"""Graph construction, induced subgraphs, formats; the test helpers' components and shape classification."""

import random
import tracemalloc

import pytest

from antcover import graph
from antcover.errors import InputError
from antcover.generate import random_block_graph
from antcover.graph import (
    build_graph,
    disjoint_union,
    parse_edgelist,
    parse_structured,
    serialize_edgelist,
    serialize_structured,
)
from helpers import (
    complete_graph,
    connected_components,
    golden_corpus,
    parsed_in_order,
    path_graph,
    random_graph,
    shape_check,
    spy_on_parse_rows,
    star_graph,
)


def test_build_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert set(g.vertices) == {0, 1, 2, 3}
    assert g.edges == {(0, 1), (1, 2), (2, 3)}


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 1
    assert set(g.vertices) == {0, 1, 2}


def test_build_rejects_loops_and_range():
    with pytest.raises(InputError):
        build_graph(2, [(0, 0)])
    with pytest.raises(InputError):
        build_graph(2, [(0, 2)])


def test_components_two_edges():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_components_connected_and_singletons():
    assert connected_components(complete_graph(5)) == [frozenset(range(5))]
    g = build_graph(3, [])
    assert connected_components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_remove_vertices_examples():
    p4 = path_graph(4)
    g = p4.induced(p4.vertices - {1})
    assert set(g.vertices) == {0, 2, 3}
    assert g.edges == {(2, 3)}
    k3 = complete_graph(3)
    assert k3.induced(k3.vertices) == k3
    assert k3.induced(set()).vertex_count == 0
    with pytest.raises(InputError):
        k3.induced({0, 7})


def test_remove_vertices_edge_formula():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        s = {v for v in g.vertices if rng.random() < 0.4}
        expect = {e for e in g.edges if not (set(e) & s)}
        assert g.induced(g.vertices - s).edges == expect


def test_components_partition_property():
    rng = random.Random(2)
    for _ in range(100):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        comps = connected_components(g)
        union = set()
        for c in comps:
            assert not union & c
            union |= c
        assert union == set(g.vertices)


def test_shape_check():
    assert shape_check(complete_graph(4)) == "clique"
    assert shape_check(star_graph(3)) == "star"
    assert shape_check(path_graph(4)) == "neither"
    assert shape_check(complete_graph(2)) == "clique"
    assert shape_check(path_graph(3)) == "star"


def test_shape_check_preconditions():
    with pytest.raises(InputError):
        shape_check(build_graph(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(InputError):
        shape_check(build_graph(1, []))  # edgeless


def test_edgelist_exact_text():
    g = build_graph(4, [(2, 3), (0, 1), (1, 2)])
    assert serialize_edgelist(g) == "4 3\n0 1\n1 2\n2 3\n"


def test_round_trip_both_formats():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert parse_edgelist(serialize_edgelist(g)) == g
        assert parse_structured(serialize_structured(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_edgelist("nonsense\n")
    with pytest.raises(InputError):
        parse_edgelist("2 2\n0 1\n")  # header mismatch
    with pytest.raises(InputError):
        parse_structured("{}")


def test_canonical_text_takes_the_one_pass_path(monkeypatch):
    def refuse(text):
        raise AssertionError("line-by-line parser called")

    monkeypatch.setattr(graph, "_parse_rows", refuse)
    for name, g in golden_corpus().items():
        assert parse_edgelist(serialize_edgelist(g)) == g, name
    for text in ("3 1\r\n0 1\r\n", "3 1\n0 1", "3 1\n\n0 1\n", "3 1\n0\t1\n"):
        with pytest.raises(AssertionError):
            parse_edgelist(text)


@pytest.mark.parametrize(
    "text",
    ["", "\n", " \n", "3\n", "3 \n", " 3\n", "3 0\n7", "3 1\n 1\n", "3 1\n0 \n", "3 1\n0 1 2\n"],
)
def test_near_canonical_text_parses_line_by_line(monkeypatch, text):
    calls = spy_on_parse_rows(monkeypatch)
    with pytest.raises(InputError):
        parse_edgelist(text)
    assert calls == [text]


# Text the gate passes although a run of digits is empty, the last case in
# the last of several chunks, and text the gate refuses; the first group goes
# line by line because json.loads refuses the chunk.
@pytest.mark.parametrize(
    "text, chunk, gate",
    [(text, None, True) for text in (" \n", "3 \n", " 3\n", "3 1\n 1\n", "3 1\n0 \n")]
    + [("5 4\n0 1\n1 2\n2 3\n3 \n", chunk, True) for chunk in range(1, 9)]
    + [
        (text, None, False)
        for text in (
            "", "\n", "3 0\n7", "3 1\r\n0 1\r\n", "3 1\n0\t1\n",
            "3 1\n+1 2\n", "3 1\n-1 2\n", "3 1\n\u0661 2\n",
        )
    ],
)
def test_gate_boundary_keeps_the_line_parser_result(monkeypatch, text, chunk, gate):
    assert bool(graph._is_canonical(text)) == gate
    expected = parsed_in_order(graph._parse_rows, text)
    if chunk is not None:
        monkeypatch.setattr(graph, "_SCAN_CHUNK", chunk)
    calls = spy_on_parse_rows(monkeypatch)
    assert parsed_in_order(parse_edgelist, text) == expected
    assert calls == [text]


def _clique_tree(n, lo, hi, rng):
    """Tree of cliques of lo..hi vertices, each glued on a random earlier vertex."""
    edges, count = [], 1
    while count < n:
        size = min(rng.randint(lo, hi), n - count + 1)
        members = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    return build_graph(n, edges)


def test_parse_peak_is_near_the_finished_graph():
    text = serialize_edgelist(_clique_tree(2000, 20, 60, random.Random(7)))
    tracemalloc.start()
    try:
        g = parse_edgelist(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count > 20_000
    # a list per line and a tuple per edge took the peak to about 3x
    assert peak <= 1.5 * kept, (peak, kept)


def test_parsed_graph_holds_one_int_object_per_vertex():
    g = parse_edgelist(serialize_edgelist(random_block_graph(3000, seed=5)))
    held = {id(v) for v in g.vertices}
    for v in g.vertices:
        held.update(map(id, g.neighbors(v)))
    # ids above 256 are not interned, so a new int per endpoint shows here
    assert len(held) == g.vertex_count


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_small_chunks_keep_canonical_text_on_the_scan(monkeypatch, chunk):
    def refuse(text):
        raise AssertionError("line-by-line parser called")

    monkeypatch.setattr(graph, "_SCAN_CHUNK", chunk)
    monkeypatch.setattr(graph, "_parse_rows", refuse)
    for name, g in golden_corpus().items():
        assert parse_edgelist(serialize_edgelist(g)) == g, name


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"n": 3, "edges": [[0, 1.7], [1, 2]]}', "an edge endpoint must be a JSON integer, got 1.7"),
        ('{"n": 3, "edges": [[0, 1], [true, 2]]}', "an edge endpoint must be a JSON integer, got true"),
        ('{"n": 3, "edges": [["0", 1]]}', 'an edge endpoint must be a JSON integer, got "0"'),
        ('{"n": 2.9, "edges": []}', "n must be a JSON integer, got 2.9"),
        ('{"n": false, "edges": []}', "n must be a JSON integer, got false"),
        ('{"n": "3", "edges": []}', 'n must be a JSON integer, got "3"'),
        ('{"n": "%s", "edges": []}' % ("9" * 99), 'n must be a JSON integer, got "%s...' % ("9" * 36)),
    ],
)
def test_structured_accepts_only_json_integers(text, named):
    with pytest.raises(InputError) as info:
        parse_structured(text)
    assert str(info.value) == f"malformed structured input: {named}"


def test_serialize_requires_contiguous_ids():
    g = path_graph(4).induced({1, 2, 3})
    with pytest.raises(InputError):
        serialize_edgelist(g)


def test_disjoint_union_relabels():
    g = disjoint_union(path_graph(3), path_graph(2))
    assert g.vertex_count == 5
    assert len(connected_components(g)) == 2


@pytest.mark.parametrize("prob", [1.5, -0.1, float("nan"), float("inf")])
def test_random_block_graph_rejects_an_edge_block_probability_outside_0_1(prob):
    with pytest.raises(InputError, match=r"not in \[0, 1\]"):
        random_block_graph(10, seed=1, edge_block_prob=prob)
    # the ends of the range stay legal: probability 1 makes a tree
    assert random_block_graph(10, seed=1, edge_block_prob=1).edge_count == 9
    assert random_block_graph(10, seed=1, edge_block_prob=0).vertex_count == 10
