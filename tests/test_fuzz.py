"""Differential fuzzing: the cover engine against its slow references.

Hypothesis draws random block graphs over the generator's parameters,
sometimes with isolated vertices added and with ids moved far from zero.
The runs are derandomised and keep no example database, so the suite
stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from antcover.blocks import block_decomposition
from antcover.cover import (
    coboxicity,
    cothdim,
    cover_to_box_representation,
    min_cover,
    validate_run,
    verify_cover,
)
from antcover.generate import random_block_graph
from antcover.graph import build_graph, disjoint_union, relabel_offset
from antcover.oracle import brute_coboxicity, brute_cothdim
from antcover.peel import COINTERVAL, THRESHOLD, peel_count
from helpers import naive_cover

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
        cover, traces, _ = min_cover(g, kind)
        size, count_traces = peel_count(g, bd, kind)
        assert size == len(cover.elements)
        assert count_traces == [t._replace(component=None) for t in traces]
        report = verify_cover(g, cover)
        assert report.valid and report.uncertified == ()  # no recogniser call
        rep = cover_to_box_representation(g, cover)
        assert rep.dimension == max(len(cover.elements), 1) and rep.satisfies(g)
        validate_run(g, cover, traces)
        elements = [(e.block, e.apex_u, e.apex_v, e.vertices, e.edges) for e in cover.elements]
        # a trace is a tuple; its first six fields are the naive twin's trace
        assert (elements, [t[:6] for t in traces]) == naive_cover(g, kind)
    if g.vertex_count <= ORACLE_LIMIT:
        assert coboxicity(g) == brute_coboxicity(g)
        assert cothdim(g) == brute_cothdim(g)
