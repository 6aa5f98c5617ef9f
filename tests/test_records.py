"""Records: immutable NamedTuples; an element compares without its host."""

import pytest

from antcover import blocks
from antcover.acceptance import CriterionResult
from antcover.blocks import block_decomposition
from antcover.cointerval import big_ant, sigma_subgraph
from antcover.cover import cover_to_box_representation, min_cointerval_cover, verify_cover
from antcover.graph import Graph
from antcover.oracle import SetCoverInstance
from helpers import path_graph, spider_graph


def test_elements_compare_hash_and_print_without_their_host(monkeypatch):
    g, twin = spider_graph(), spider_graph()
    assert g == twin and g is not twin
    pairs = [
        (big_ant(g, [0, 1, 2], 0, 1), big_ant(twin, [0, 1, 2], 0, 1)),
        (sigma_subgraph(g, range(6)), sigma_subgraph(twin, range(6))),
    ]

    def refuse(*args):
        raise AssertionError("the host was compared or hashed")

    # a Graph compares and hashes in O(|V|+|E|), so an element must not
    monkeypatch.setattr(Graph, "__eq__", refuse)
    monkeypatch.setattr(Graph, "__hash__", refuse)
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "host" not in repr(a) and "Graph" not in repr(a)
    ant = pairs[0][0]
    for other in (ant._replace(apex_u=2), ant._replace(edges=ant.edges - {(0, 1)})):
        assert ant != other and not ant == other


def test_records_are_immutable():
    g = path_graph(6)
    bd = block_decomposition(g)
    cover, traces = min_cointerval_cover(g)
    records = [
        bd,
        big_ant(g, [1, 2], 1, 2),
        sigma_subgraph(g, range(6)),
        cover,
        traces[0],
        verify_cover(g, cover),
        cover_to_box_representation(g, cover),
        SetCoverInstance(frozenset(), ()),
        CriterionResult(1, "slug", True, "detail", 0.0),
    ]
    for record in records:
        for name in record._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_decomposition_is_cached_and_equals_a_fresh_pass():
    g = spider_graph()
    bd = block_decomposition(g)
    assert block_decomposition(g) is bd
    assert bd == blocks._decompose(g)
