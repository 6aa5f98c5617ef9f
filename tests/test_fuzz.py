"""Differential fuzzing: the cover engine against its slow references, the
chunked edge-list scan against the line-by-line parser, and round trips
through both graph formats and through cover JSON.

Hypothesis draws random block graphs over the generator's parameters,
sometimes with isolated vertices added and with ids moved far from zero.
The runs are derandomised and keep no example database, so the suite
stays deterministic.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antcover import cli, graph
from antcover.blocks import block_decomposition
from antcover.cover import (
    Cover,
    box_to_dict,
    coboxicity,
    cothdim,
    cover_from_dict,
    cover_to_box_representation,
    cover_to_dict,
    min_cover,
    validate_run,
    verify_cover,
)
from antcover.generate import random_block_graph
from antcover.graph import (
    MAX_VERTICES,
    build_graph,
    norm_edge,
    disjoint_union,
    parse_structured,
    relabel_offset,
    serialize_edgelist,
    serialize_structured,
)
from antcover.oracle import brute_coboxicity, brute_cothdim
from antcover.peel import COINTERVAL, THRESHOLD
from helpers import counted_run, golden_corpus, in_order, naive_cover, parsed_in_order, spy_on_parse_rows

ORACLE_LIMIT = 12  # vertices; the brute-force oracle is exponential


@st.composite
def block_graphs(draw):
    g = random_block_graph(
        draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        edge_block_prob=draw(st.floats(0.0, 1.0)),
        max_block=draw(st.integers(2, 6)),
    )
    isolated = draw(st.integers(0, 3))
    if isolated:
        extra = build_graph(isolated, [])
        g = disjoint_union(extra, g) if draw(st.booleans()) else disjoint_union(g, extra)
    if draw(st.booleans()):
        g = relabel_offset(g, 10**9)
    return g


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(block_graphs())
def test_engine_agrees_with_its_references(g):
    bd = block_decomposition(g)
    for kind in (COINTERVAL, THRESHOLD):
        cover, traces = min_cover(g, kind)
        size, st = counted_run(bd, kind)
        assert size == len(cover.elements)
        assert st.removed_sets() == [t.removed for t in traces]  # same batches, same order
        report = verify_cover(g, cover)
        assert report.valid
        rep = cover_to_box_representation(g, cover)
        assert rep.dimension == max(len(cover.elements), 1) and rep.satisfies(g)
        boxes = rep.boxes
        as_lists = {
            "d": rep.dimension,
            "boxes": {str(v): [list(iv) for iv in boxes[v]] for v in sorted(boxes)},
        }
        for layout in ({"separators": (",", ":")}, {"indent": 2}):
            assert json.dumps(box_to_dict(rep), **layout) == json.dumps(as_lists, **layout)
        validate_run(g, cover, traces)
        elements = [(e.block, e.apex_u, e.apex_v, e.vertices, e.edges) for e in cover.elements]
        # a trace is a tuple; its first six fields are the naive twin's trace
        assert (elements, [t[:6] for t in traces]) == naive_cover(g, kind)
    if g.vertex_count <= ORACLE_LIMIT:
        assert coboxicity(g) == brute_coboxicity(g)
        assert cothdim(g) == brute_cothdim(g)


def _cli_verify(g, cover):
    """The exit code of the verify command on g and cover, read from files,
    or None when g's ids are not 0..n-1, which no graph file can hold."""
    if g.vertices != set(range(g.vertex_count)):
        return None
    return _cli_verify_json(g, cover_to_dict(cover))


def _cli_verify_json(g, payload):
    """The exit code of the verify command on g and a cover's JSON form."""
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = Path(tmp, "g.txt"), Path(tmp, "c.json")
        gpath.write_text(serialize_edgelist(g))
        cpath.write_text(json.dumps(payload))
        return cli.main(["verify", "-i", str(gpath), "--cover", str(cpath)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(block_graphs(), st.sampled_from((COINTERVAL, THRESHOLD)), st.data())
def test_tampered_covers_are_caught(g, kind, data):
    """A computed cover with one edge dropped from an element leaves that
    edge uncovered unless another element holds it; an element given an
    edge the host lacks is named as no subgraph, and the edges only it
    held go uncovered. The verify command exits 1 on each invalid cover."""
    cover, _ = min_cover(g, kind, False)
    if not cover.elements:
        return
    elements = cover.elements
    i = data.draw(st.integers(0, len(elements) - 1), label="element")
    el = elements[i]

    def with_element(tampered):
        return Cover(g, (*elements[:i], tampered, *elements[i + 1:]), kind)

    edge = data.draw(st.sampled_from(sorted(el.edges)), label="dropped edge")
    elsewhere = set().union(*(other.edges for k, other in enumerate(elements) if k != i))
    dropped = with_element(el._replace(edges=el.edges - {edge}))
    report = verify_cover(g, dropped)
    assert report.uncovered == {edge} - elsewhere
    assert report.not_subgraphs == ()
    assert _cli_verify(g, dropped) in (None, 0 if report.valid else 1)

    a = data.draw(st.sampled_from(sorted(el.vertices)), label="endpoint in the element")
    outside = max(g.vertices) + 1
    b = data.draw(
        st.sampled_from(sorted(g.vertices - g.neighbors(a) - {a}) + [outside]), label="non-neighbour"
    )
    added = with_element(el._replace(vertices=el.vertices | {b}, edges=el.edges | {norm_edge(a, b)}))
    report = verify_cover(g, added)
    assert report.not_subgraphs == (i,) and report.uncovered == el.edges - elsewhere
    assert _cli_verify(g, added) in (None, 1)


TRACE_MUTATIONS = (
    "apex-not-removed", "removed-again", "another-element", "unknown-case",
    "protected-outside-the-block", "another-block", "non-integer-id",
    "component-misses-a-vertex", "component-gains-a-vertex",
)


def _can_mutate(mutation, trace, vertices):
    """Whether the snapshot mutations have a vertex to drop or to add."""
    if mutation == "component-misses-a-vertex":
        return trace.component > trace.removed
    if mutation == "component-gains-a-vertex":
        return trace.component != vertices
    return True


def _mutate_trace(mutation, trace, element, earlier, vertices):
    """Change one trace of a cover file in place; element is the trace's
    element and earlier the vertices that the iterations before it removed."""
    if mutation == "apex-not-removed":
        trace["removed"].remove(trace["apexes"][0])
    elif mutation == "removed-again":
        trace["removed"].append(min(earlier))
    elif mutation == "another-element":
        trace["element"] += 1
    elif mutation == "unknown-case":
        trace["case"] = "zzz"
    elif mutation == "protected-outside-the-block":
        trace["protected"] = min(vertices - set(element["block"]))
    elif mutation == "another-block":
        trace["block"] = element["block"][1:]
    elif mutation == "non-integer-id":
        trace["removed"][0] = str(trace["removed"][0])
    elif mutation == "component-misses-a-vertex":
        trace["component"].remove(min(set(trace["component"]) - set(trace["removed"])))
    elif mutation == "component-gains-a-vertex":
        trace["component"] = sorted({*trace["component"], min(vertices - set(trace["component"]))})


@pytest.mark.parametrize("kind", (COINTERVAL, THRESHOLD))
def test_tampered_traces_are_caught(kind):
    """verify replays the run that a cover file records: each golden cover
    file is valid, one trace changed in a well-formed way makes it invalid
    (exit 1), and a vertex id that is no integer makes it malformed (exit
    2). The trace to change is drawn by a seeded generator."""
    for name, g in golden_corpus().items():
        cover, traces = min_cover(g, kind)
        payload = cover_to_dict(cover, traces)
        assert _cli_verify_json(g, payload) == 0, name
        rng = random.Random(f"{name}:{kind}")
        for mutation in TRACE_MUTATIONS:
            # a run of one iteration removes nothing before it
            first = 1 if mutation == "removed-again" else 0
            candidates = [t for t in range(first, len(traces)) if _can_mutate(mutation, traces[t], g.vertices)]
            if not candidates:
                continue
            t = rng.choice(candidates)
            tampered = json.loads(json.dumps(payload))
            earlier = set().union(*(tr.removed for tr in traces[:t]))
            _mutate_trace(mutation, tampered["traces"][t], tampered["elements"][t], earlier, g.vertices)
            status = 2 if mutation == "non-integer-id" else 1
            assert _cli_verify_json(g, tampered) == status, (name, mutation, t)


# Edge-list text mutations. The content ones keep the canonical form (digits,
# one space, '\n' after every line), so the one-pass path still reads the
# text, and all but a duplicate edge are anomalies that it hands to the
# line-by-line path; the form ones leave the text to that path, through the
# gate or, for an empty run of digits, through json's refusal of the chunk.
CONTENT_MUTATIONS = (
    "wrong-count", "leading-zeros", "out-of-range", "loop", "duplicate",
    "too-many-vertices", "long-token",
)
FORM_MUTATIONS = (
    "tab", "double-space", "leading-space", "trailing-space", "one-token", "three-tokens",
    "no-first-token", "no-second-token", "plus-sign", "non-ascii-digit", "blank-line",
    "crlf", "no-final-newline", "digits-after-final-newline",
)


def _mutate_content(draw, n, header, rows, mutation):
    """Apply one content mutation to the token rows of a graph on n vertices."""
    if mutation == "wrong-count":
        m, delta = int(header[1]), draw(st.sampled_from((-2, -1, 1, 2)))
        header[1] = str(m + delta if m + delta >= 0 else m - delta)
    elif mutation == "leading-zeros":
        line = draw(st.integers(0, len(rows)))
        target = header if line == 0 else rows[line - 1]
        target[:] = ["0" * draw(st.integers(1, 3)) + t for t in target]
    elif mutation in ("out-of-range", "loop", "duplicate"):
        if mutation == "out-of-range":
            row = [str(draw(st.integers(0, n - 1))), str(n + draw(st.integers(0, 3)))]
        elif mutation == "loop":
            row = [str(draw(st.integers(0, n + 1)))] * 2
        elif rows:
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            return
        rows.insert(draw(st.integers(0, len(rows))), row)
        header[1] = str(int(header[1]) + 1)
    elif mutation == "too-many-vertices":
        header[0] = str(MAX_VERTICES + draw(st.integers(1, 10**9)))
    elif mutation == "long-token":  # past int()'s default 4,300-digit limit
        line = draw(st.integers(0, len(rows)))
        target = header if line == 0 else rows[line - 1]
        target[draw(st.integers(0, 1))] = "1" + "0" * 4300


def _mutate_form(draw, lines, mutation):
    last = len(lines) - 1
    i = draw(st.one_of(st.just(0), st.just(last), st.integers(0, last)))
    if mutation == "tab":
        lines[i] = lines[i].replace(" ", "\t")
    elif mutation == "double-space":
        lines[i] = lines[i].replace(" ", "  ")
    elif mutation == "leading-space":
        lines[i] = " " + lines[i]
    elif mutation == "trailing-space":
        lines[i] += " "
    elif mutation == "one-token":
        lines[i] = lines[i].split(" ")[0]
    elif mutation == "three-tokens":
        lines[i] += " 1"
    elif mutation == "no-first-token":  # keeps one space per line
        lines[i] = " " + lines[i].split(" ")[-1]
    elif mutation == "no-second-token":
        lines[i] = lines[i].split(" ")[0] + " "
    elif mutation == "plus-sign":
        lines[i] = "+" + lines[i]
    elif mutation == "non-ascii-digit":  # int() reads it; canonical text has none
        lines[i] = "\u0661" + lines[i][1:]
    elif mutation == "blank-line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))


@st.composite
def edgelist_texts(draw):
    """(text, line_by_line): serialize_edgelist of a random block graph
    with up to two content and two form mutations, and whether the text
    must go to the line-by-line parser: it has a form mutation or a content
    anomaly."""
    g = random_block_graph(
        draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**32 - 1)),
        edge_block_prob=draw(st.floats(0.0, 1.0)),
        max_block=draw(st.integers(2, 6)),
    )
    header, *rows = [line.split(" ") for line in serialize_edgelist(g).splitlines()]
    content = draw(st.lists(st.sampled_from(CONTENT_MUTATIONS), max_size=2))
    form = []
    if draw(st.booleans()):
        form = draw(st.lists(st.sampled_from(FORM_MUTATIONS), min_size=1, max_size=2))
    # the long token goes in last: the count mutations read the header as ints
    for mutation in sorted(content, key=lambda m: m == "long-token"):
        _mutate_content(draw, g.vertex_count, header, rows, mutation)
    # two wrong counts may cancel out, so the count is read off the result
    anomaly = header[1] != str(len(rows)) or any(
        m not in ("wrong-count", "duplicate") for m in content
    )
    lines = [" ".join(row) for row in [header] + rows]
    for mutation in form:
        _mutate_form(draw, lines, mutation)
    end = "\r\n" if "crlf" in form else "\n"
    text = end.join(lines) + ("" if "no-final-newline" in form else end)
    if "digits-after-final-newline" in form:
        text += "7"
    return text, bool(form) or anomaly


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(edgelist_texts())
def test_one_pass_parse_agrees_with_the_line_parser(case):
    text, line_by_line = case
    expected = parsed_in_order(graph._parse_rows, text)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_on_parse_rows(patch)
        parsed = parsed_in_order(graph.parse_edgelist, text)
    assert calls == ([text] if line_by_line else [])
    assert parsed == expected


# Anomalies the chunked scan hands to the line parser, put on the last line,
# so that with small chunks they sit in the last chunk, after the scan has
# already filled sets from the earlier ones.
LAST_LINE_ANOMALIES = ("out-of-range", "loop", "leading-zeros", "long-token")


@st.composite
def last_line_anomaly_texts(draw):
    """serialize_edgelist of a random block graph with one more edge line,
    at the end, which still has the canonical form."""
    g = random_block_graph(
        draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2**32 - 1)),
        edge_block_prob=draw(st.floats(0.0, 1.0)),
        max_block=draw(st.integers(2, 6)),
    )
    n = g.vertex_count
    u, v = str(draw(st.integers(0, n - 1))), str(draw(st.integers(0, n - 1)))
    anomaly = draw(st.sampled_from(LAST_LINE_ANOMALIES))
    if anomaly == "out-of-range":
        row = [u, str(n + draw(st.integers(0, 3)))]
    elif anomaly == "loop":
        row = [u, u]
    elif anomaly == "leading-zeros":  # int() reads it, json refuses it
        row = ["0" * draw(st.integers(1, 3)) + u, v]
    else:
        row = ["1" + "0" * 4300, v]
    if draw(st.booleans()):
        row.reverse()
    _, body = serialize_edgelist(g).split("\n", 1)
    return f"{n} {g.edge_count + 1}\n{body}{' '.join(row)}\n"


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(
    st.one_of(edgelist_texts().map(lambda case: case[0]), last_line_anomaly_texts()),
    st.integers(1, 64),
)
def test_chunked_scan_agrees_with_the_line_parser(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_SCAN_CHUNK", chunk)
        scanned = parsed_in_order(graph.parse_edgelist, text)
    assert scanned == parsed_in_order(graph._parse_rows, text)


def _refuse(text):
    raise AssertionError("line-by-line parser called")


generated_block_graphs = st.builds(
    random_block_graph,
    st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    edge_block_prob=st.floats(0.0, 1.0),
    max_block=st.integers(2, 8),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(generated_block_graphs)
@example(build_graph(0, []))
@example(build_graph(7, []))
def test_both_graph_formats_round_trip(g):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_parse_rows", _refuse)
        parsed = graph.parse_edgelist(serialize_edgelist(g))
    assert parsed == g
    assert in_order(parsed) == in_order(build_graph(g.vertex_count, sorted(g.edges)))
    assert parse_structured(serialize_structured(g)) == g


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(generated_block_graphs)
def test_cover_json_round_trips(g):
    """Both kinds of cover, with their traces, read back from JSON text as
    the cover written, on g, on g with its ids shifted far from zero and
    on g with an isolated vertex added."""
    for host in (g, relabel_offset(g, 10**9), disjoint_union(g, build_graph(1, []))):
        for kind in (COINTERVAL, THRESHOLD):
            cover, traces = min_cover(host, kind)
            payload = cover_to_dict(cover, traces)
            again = cover_from_dict(host, json.loads(json.dumps(payload)))
            assert again == cover
            written = cover_to_dict(again)
            assert [written[k] for k in ("kind", "size", "elements")] == [
                payload[k] for k in ("kind", "size", "elements")
            ]
