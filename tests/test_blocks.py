"""Block decomposition, the block-graph check, the block-cut tree and near-leaf blocks."""

import itertools
import random
import re
from collections import Counter

import networkx as nx
import pytest

from antcover import blocks, peel
from antcover.blocks import (
    block_cut_tree_dot,
    block_decomposition,
    checked_block_decomposition,
    is_block_graph,
)
from antcover.errors import NotBlockGraphError
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph, disjoint_union
from helpers import (
    complete_graph,
    connected_components,
    cycle_graph,
    free_trees,
    least_near_leaf,
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
        if len(connected_components(g.induced(g.vertices - {v}))) > base
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
    # a block is isolated, leaf or internal by its number of cut vertices;
    # the decomposition flags the internal ones
    def kinds(g):
        bd = block_decomposition(g)
        return [(len(cuts), len(b) == 2) for b, cuts in zip(bd.blocks, bd.block_cuts)]

    assert kinds(path_graph(4)) == [(1, True), (2, True), (1, True)]
    assert kinds(complete_graph(5)) == [(0, False)]
    assert [k for k, _ in kinds(path_graph(5))] == [1, 2, 2, 1]
    assert block_decomposition(path_graph(5)).internal == (False, True, True, False)


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


def reference_views(g):
    """blocks, cut_vertices and block_cuts from scratch: networkx's blocks
    by sorted member list, and the vertices in two or more of them."""
    ordered = sorted(sorted(b) for b in networkx_blocks(g))
    seen = Counter(v for b in ordered for v in b)
    cuts = frozenset(v for v, k in seen.items() if k >= 2)
    return tuple(map(frozenset, ordered)), cuts, tuple(tuple(v for v in b if v in cuts) for b in ordered)


def test_views_match_a_reference_on_both_passes(monkeypatch):
    rng = random.Random(16)
    graphs = [
        random_block_graph(rng.randint(1, 60), seed=4100 + i, edge_block_prob=rng.random(), max_block=rng.randint(2, 9))
        for i in range(60)
    ]
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(100)]
    graphs += [disjoint_union(build_graph(3, []), two_triangles()), build_graph(0, [])]
    for g in graphs:
        for h in (g, spread_ids(g)):
            want = reference_views(h)
            for bd in (blocks._decompose(h), hopcroft_tarjan_index(h, monkeypatch)):
                block_cuts = bd.block_cuts
                assert (bd.blocks, bd.cut_vertices, block_cuts) == want
                assert bd.cut_counts == tuple(map(len, block_cuts))


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


def test_incidence_matches_a_scan_of_every_block():
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
            ids = sorted(h.vertices)
            assert bd.ids == (None if ids == list(range(len(ids))) else tuple(ids))
            assert len(bd.incidence) == len(ids)
            members, blocks = bd.members, bd.blocks
            for k, v in enumerate(ids):
                # every block, tested for index k and for its vertex id v
                assert bd.incidence[k] == tuple(i for i, b in enumerate(members) if k in b)
                assert bd.incidence[k] == tuple(i for i, b in enumerate(blocks) if v in b)


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


def _core(g: Graph) -> Graph:
    """g without its isolated blocks and without each leaf block except
    that block's cut vertex."""
    bd = block_decomposition(g)
    kept = set(g.vertices)
    for b, cuts in zip(bd.blocks, bd.block_cuts):
        if len(cuts) <= 1:
            kept -= b - set(cuts)
    return g.induced(kept)


def test_core_examples():
    assert _core(path_graph(5)) == path_graph(5).induced({1, 2, 3})
    assert _core(complete_graph(5)).vertex_count == 0
    c = _core(star_graph(4))
    assert set(c.vertices) == {0} and c.edge_count == 0


def test_core_blocks_are_internal_blocks():
    # decomposing the core again gives back exactly the internal blocks
    rng = random.Random(9)
    for _ in range(120):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        bd = block_decomposition(g)
        internal = {
            b for b, cuts in zip(bd.blocks, bd.block_cuts) if len(cuts) >= 2
        }
        core_blocks = {
            b for b in block_decomposition(_core(g)).blocks if len(b) >= 2
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
    g = path_graph(5)
    i, anchor = least_near_leaf(g)
    assert block_decomposition(g).blocks[i] == {1, 2}
    assert anchor == 2


def test_near_leaf_spider_has_no_anchor():
    g = spider_graph()
    i, anchor = least_near_leaf(g)
    assert block_decomposition(g).blocks[i] == {0, 1, 2}
    assert anchor is None


def test_near_leaf_two_triangle_chain():
    # two internal triangles joined by a pendant-decorated path; the block
    # touching exactly one internal block wins, anchored at the shared cut
    edges = [
        (0, 1), (0, 2), (1, 2), (0, 7), (1, 8),    # triangle with pendants
        (2, 3), (3, 9), (3, 4),                     # decorated path
        (4, 5), (4, 6), (5, 6), (5, 10), (6, 11),   # second triangle
    ]
    g = build_graph(12, edges)
    i, anchor = least_near_leaf(g)
    assert block_decomposition(g).blocks[i] == {0, 1, 2}
    assert anchor == 2


def test_near_leaf_choice_is_minimum_qualifying_block():
    # the peel engine's near-leaf heap at the start of a run, against the
    # literal definition
    rng = random.Random(12)
    checked = 0
    for i in range(150):
        g = random_block_graph(rng.randint(4, 14), seed=500 + i)
        chosen = peel._Peel(block_decomposition(g)).pop_near_leaf()
        if not near_leaf_candidates(g):
            assert chosen is None
            continue
        checked += 1
        assert chosen == least_near_leaf(g)[0]
    assert checked > 30


def test_near_leaf_preconditions():
    # graphs outside the near-leaf search's preconditions (one block, a
    # star, disconnected, a big leaf block) have no internal block, so
    # neither the definition nor the engine finds a near-leaf block
    triangle_pendant = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    for g in (complete_graph(4), star_graph(3), build_graph(4, [(0, 1), (2, 3)]), triangle_pendant):
        assert near_leaf_candidates(g) == []
        assert peel._Peel(block_decomposition(g)).pop_near_leaf() is None


def test_block_cut_tree_dot():
    text = block_cut_tree_dot(block_decomposition(path_graph(4)))
    assert "B0" in text and "c1" in text and "B1 -- c1;" in text
    assert text == block_cut_tree_dot(block_decomposition(path_graph(4)))
