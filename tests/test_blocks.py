"""Block decomposition, classification, core and near-leaf detection."""

import itertools
import random
import re

import networkx as nx
import pytest

from antcover import blocks
from antcover.blocks import (
    block_cut_tree_dot,
    block_decomposition,
    checked_block_decomposition,
    classify_blocks,
    core,
    find_near_leaf_block,
    is_block_graph,
    is_pointed,
)
from antcover.errors import InputError, NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph, connected_components, disjoint_union, remove_vertices
from helpers import (
    complete_graph,
    cycle_graph,
    free_trees,
    near_leaf_candidates,
    path_graph,
    random_graph,
    spider_graph,
    star_graph,
)


def two_triangles():
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_decomposition_path():
    bd = block_decomposition(path_graph(4))
    assert list(bd.blocks) == [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    assert bd.cut_vertices == {1, 2}


def test_decomposition_clique():
    bd = block_decomposition(complete_graph(5))
    assert list(bd.blocks) == [frozenset(range(5))]
    assert bd.cut_vertices == frozenset()


def test_decomposition_two_triangles_vs_articulation_scan():
    g = two_triangles()
    bd = block_decomposition(g)
    assert list(bd.blocks) == [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
    # independent oracle: v is a cut-vertex iff removing it splits its component
    base = len(connected_components(g))
    cuts = {
        v
        for v in g.vertices
        if len(connected_components(remove_vertices(g, {v}))) > base
    }
    assert bd.cut_vertices == cuts


def test_decomposition_matches_networkx_on_random_graphs():
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        bd = block_decomposition(g)
        assert set(bd.blocks) == networkx_blocks(g)
        assert bd.cut_vertices == set(nx.articulation_points(to_networkx(g)))


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return nxg


def networkx_blocks(g):
    """Biconnected components, plus a singleton block per isolated vertex."""
    want = {frozenset(c) for c in nx.biconnected_components(to_networkx(g))}
    return want | {frozenset({v}) for v in g.vertices if g.degree(v) == 0}


def test_edge_partition_over_blocks():
    rng = random.Random(8)
    for _ in range(80):
        g = random_graph(rng.randint(1, 11), rng.random(), rng)
        bd = block_decomposition(g)
        total = 0
        for b in bd.blocks:
            members = sorted(b)
            total += sum(
                1
                for i, u in enumerate(members)
                for v in members[i + 1:]
                if g.has_edge(u, v)
            )
        assert total == g.edge_count


def test_classify_blocks():
    assert [(c.kind, c.is_edge_block) for c in classify_blocks(block_decomposition(path_graph(4)))] == [
        ("leaf", True),
        ("internal", True),
        ("leaf", True),
    ]
    k5 = classify_blocks(block_decomposition(complete_graph(5)))
    assert [(c.kind, c.is_edge_block) for c in k5] == [("isolated", False)]
    p5 = classify_blocks(block_decomposition(path_graph(5)))
    assert [c.kind for c in p5] == ["leaf", "internal", "internal", "leaf"]


def test_is_block_graph():
    for tree in free_trees(7):
        assert is_block_graph(tree)
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(two_triangles())


def brute_is_block_graph(g) -> bool:
    """Every biconnected component (networkx) induces a clique, pair by pair."""
    return all(
        g.has_edge(a, b)
        for comp in nx.biconnected_components(to_networkx(g))
        for a, b in itertools.combinations(comp, 2)
    )


def k4_minus_edge():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_is_block_graph_matches_per_block_definition():
    isolated = build_graph(3, [])
    fixed = [
        k4_minus_edge(),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(7),
        disjoint_union(isolated, two_triangles()),
        disjoint_union(cycle_graph(5), isolated),
        disjoint_union(k4_minus_edge(), complete_graph(4)),
        build_graph(0, []),
    ]
    rng = random.Random(11)
    graphs = fixed + [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(400)]
    verdicts = [is_block_graph(g) for g in graphs]
    assert verdicts == [brute_is_block_graph(g) for g in graphs]
    assert verdicts[:8] == [False, True, False, False, True, False, False, True]
    assert 0 < sum(verdicts) < len(verdicts)
    # ids far from 0..n-1, and not contiguous: same verdicts, networkx's blocks
    for g, verdict in zip(graphs, verdicts):
        far = Graph.from_data(
            [3 * v + 10**9 for v in g.vertices], [(3 * a + 10**9, 3 * b + 10**9) for a, b in g.edges]
        )
        assert is_block_graph(far) == brute_is_block_graph(far) == verdict
        bd = block_decomposition(far)
        assert set(bd.blocks) == networkx_blocks(far)
        assert [sorted(b) for b in bd.blocks] == sorted(sorted(b) for b in bd.blocks)
        assert all(set(cuts) == b & bd.cut_vertices for b, cuts in zip(bd.blocks, bd.block_cuts))


def hopcroft_tarjan_index(g, monkeypatch):
    """g's decomposition with the clique-tree pass refusing every graph."""
    with monkeypatch.context() as m:
        m.setattr(blocks, "_clique_tree", lambda adj, edges: None)
        return blocks._decompose(g)


def spread_ids(g):
    """g with every id v moved to 3v + 10**9."""
    return Graph.from_data(
        [3 * v + 10**9 for v in g.vertices], [(3 * a + 10**9, 3 * b + 10**9) for a, b in g.edges]
    )


def test_clique_tree_pass_matches_hopcroft_tarjan(monkeypatch):
    accepted = []
    original = blocks._clique_tree

    def watched(adj, edges):
        found = original(adj, edges)
        accepted.append(found is not None)
        return found

    monkeypatch.setattr(blocks, "_clique_tree", watched)
    rng = random.Random(14)
    block_graphs = []
    for i in range(150):
        g = build_graph(rng.randint(0, 3), [])  # isolated vertices
        for j in range(rng.randint(1, 3)):
            piece = random_block_graph(
                rng.randint(1, 40), seed=3000 + 4 * i + j,
                edge_block_prob=rng.random(), max_block=rng.randint(2, 12),
            )
            g = disjoint_union(g, piece)
        block_graphs += [g, spread_ids(g)]
    for g in block_graphs:
        accepted.clear()
        bd = blocks._decompose(g)
        # the whole decomposition, the verdict on every block included
        assert bd == hopcroft_tarjan_index(g, monkeypatch)
        assert accepted == [True] and bd.cliques
    general = [random_graph(rng.randint(1, 14), rng.random(), rng) for _ in range(300)]
    verdicts = []
    for g in general + [spread_ids(g) for g in general]:
        verdict = brute_is_block_graph(g)
        accepted.clear()
        bd = blocks._decompose(g)
        assert bd == hopcroft_tarjan_index(g, monkeypatch)
        assert accepted == [verdict] and bd.cliques == verdict
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def index_adjacency(g):
    return [g.neighbors(v) for v in range(g.vertex_count)]


def test_clique_tree_pass_refuses_a_cycle_and_a_diamond():
    c4 = cycle_graph(4)
    # an edge block meets a vertex reached before: no edge count makes the
    # cycle a tree of cliques
    assert all(blocks._clique_tree(index_adjacency(c4), m) is None for m in range(8))
    # the same for a bigger block: the triangle {1, 2, 4} meets vertex 2,
    # reached through the triangle {0, 1, 2}
    closed = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 4)])
    assert all(blocks._clique_tree(index_adjacency(closed), m) is None for m in range(12))
    diamond = k4_minus_edge()
    # a tree of one block, whose 6 pairs are not the diamond's 5 edges
    assert blocks._clique_tree(index_adjacency(diamond), 5) is None
    assert blocks._clique_tree(index_adjacency(diamond), 6) is not None
    for g, pair in ((c4, (0, 2)), (closed, (0, 3)), (diamond, (2, 3))):
        assert not is_block_graph(g)
        with pytest.raises(NotBlockGraphError) as info:
            checked_block_decomposition(g)
        assert str(info.value) == "block containing %d and %d is not a clique" % pair


def test_blocks_at_matches_a_scan_of_every_block():
    rng = random.Random(13)
    graphs = [random_block_graph(rng.randint(1, 80), seed=2400 + i) for i in range(60)]
    graphs += [random_graph(rng.randint(1, 14), rng.random(), rng) for _ in range(100)]
    graphs += [disjoint_union(build_graph(3, []), two_triangles()), build_graph(0, [])]
    for g in graphs:
        spread = Graph.from_data(
            [3 * v + 10**9 for v in g.vertices], [(3 * a + 10**9, 3 * b + 10**9) for a, b in g.edges]
        )
        for h in (g, spread):
            bd = block_decomposition(h)
            top = max(h.vertices, default=0)
            probes = set(h.vertices) | {-1, top + 1, 10**9 - 1, 10**9 + 1, 10**9 + 2}
            for v in sorted(probes):
                # the old definition: every block, tested for v
                assert bd.blocks_at(v) == tuple(i for i, b in enumerate(bd.blocks) if v in b)


def test_not_block_graph_error_names_a_missing_pair_of_one_block():
    rng = random.Random(12)
    graphs = [k4_minus_edge(), cycle_graph(6), disjoint_union(path_graph(3), k4_minus_edge())]
    graphs += [random_graph(rng.randint(4, 12), rng.random(), rng) for _ in range(200)]
    rejected = 0
    for g in graphs:
        if is_block_graph(g):
            assert checked_block_decomposition(g).blocks == block_decomposition(g).blocks
            continue
        rejected += 1
        with pytest.raises(NotBlockGraphError) as info:
            checked_block_decomposition(g)
        match = re.fullmatch(r"block containing (\d+) and (\d+) is not a clique", str(info.value))
        u, v = int(match[1]), int(match[2])
        assert not g.has_edge(u, v)
        assert any({u, v} <= b for b in block_decomposition(g).blocks)
    assert rejected > 50


def test_is_pointed():
    assert is_pointed(path_graph(5))
    triangle_pendant = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert not is_pointed(triangle_pendant)
    assert is_pointed(complete_graph(5))


def test_core_examples():
    assert core(path_graph(5)) == path_graph(5).induced({1, 2, 3})
    assert core(complete_graph(5)).vertex_count == 0
    c = core(star_graph(4))
    assert set(c.vertices) == {0} and c.edge_count == 0


def test_core_blocks_are_internal_blocks():
    rng = random.Random(9)
    for _ in range(120):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        bd = block_decomposition(g)
        internal = {
            b for b, cuts in zip(bd.blocks, bd.block_cuts) if len(cuts) >= 2
        }
        core_blocks = {
            b for b in block_decomposition(core(g)).blocks if len(b) >= 2
        }
        assert core_blocks == internal


def test_leaf_block_exists_in_multiblock_components():
    rng = random.Random(10)
    checked = 0
    for _ in range(200):
        g = random_graph(rng.randint(2, 10), rng.random(), rng)
        for comp in connected_components(g):
            if len(comp) < 2:
                continue
            h = g.induced(comp)
            bd = block_decomposition(h)
            if len(bd.blocks) < 2:
                continue
            checked += 1
            assert any(len(cuts) == 1 for cuts in bd.block_cuts)
    assert checked > 50


def test_near_leaf_exists_iff_internal_block_exists():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        bd = block_decomposition(g)
        has_internal = any(len(cuts) >= 2 for cuts in bd.block_cuts)
        assert bool(near_leaf_candidates(g)) == has_internal


def test_near_leaf_path():
    res = find_near_leaf_block(path_graph(5))
    bd = block_decomposition(path_graph(5))
    assert bd.blocks[res.block_index] == {1, 2}
    assert res.anchor == 2
    assert res.non_anchor_cut_vertices == (1,)


def test_near_leaf_spider_has_no_anchor():
    res = find_near_leaf_block(spider_graph())
    bd = block_decomposition(spider_graph())
    assert bd.blocks[res.block_index] == {0, 1, 2}
    assert res.anchor is None
    assert set(res.non_anchor_cut_vertices) == {0, 1, 2}


def test_near_leaf_two_triangle_chain():
    # two internal triangles joined by a pendant-decorated path; the block
    # touching exactly one internal block wins, anchored at the shared cut
    edges = [
        (0, 1), (0, 2), (1, 2), (0, 7), (1, 8),    # triangle with pendants
        (2, 3), (3, 9), (3, 4),                     # decorated path
        (4, 5), (4, 6), (5, 6), (5, 10), (6, 11),   # second triangle
    ]
    g = build_graph(12, edges)
    res = find_near_leaf_block(g)
    bd = block_decomposition(g)
    assert bd.blocks[res.block_index] == {0, 1, 2}
    assert res.anchor == 2
    assert (res.block_index, res.anchor) in near_leaf_candidates(g)


def test_near_leaf_choice_is_minimum_qualifying_block():
    rng = random.Random(12)
    checked = 0
    for i in range(150):
        g = random_block_graph(rng.randint(4, 14), seed=500 + i)
        bd = block_decomposition(g)
        try:
            res = find_near_leaf_block(g)
        except InputError:
            continue  # clique, star or unpointed instance
        checked += 1
        cands = near_leaf_candidates(g)
        assert (res.block_index, res.anchor) in cands
        best = min(min(bd.blocks[i]) for i, _ in cands)
        assert min(bd.blocks[res.block_index]) == best
    assert checked > 30


def test_near_leaf_preconditions():
    with pytest.raises(InputError):
        find_near_leaf_block(complete_graph(4))  # single block
    with pytest.raises(InputError):
        find_near_leaf_block(star_graph(3))  # star
    with pytest.raises(InputError):
        find_near_leaf_block(build_graph(4, [(0, 1), (2, 3)]))  # disconnected
    triangle_pendant = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    with pytest.raises(InputError):
        find_near_leaf_block(triangle_pendant)  # not pointed


def test_block_cut_tree_dot():
    text = block_cut_tree_dot(block_decomposition(path_graph(4)))
    assert "B0" in text and "c1" in text and "B1 -- c1;" in text
    assert text == block_cut_tree_dot(block_decomposition(path_graph(4)))
