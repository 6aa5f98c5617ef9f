"""Shared test utilities: slow reference implementations and graph builders."""

from __future__ import annotations

import itertools
import random

from antcover import graph, peel
from antcover.acceptance import free_trees, path_graph, random_graph  # noqa: F401 (re-exported)
from antcover.blocks import block_decomposition
from antcover.cover import min_cointerval_cover, min_threshold_cover
from antcover.errors import InputError
from antcover.graph import Graph, build_graph, norm_edge


def in_order(g: Graph) -> list[tuple[int, list[int]]]:
    """Every vertex of g with its neighbours in the order its set iterates them."""
    return [(v, list(g.neighbors(v))) for v in g.vertices]


def parsed_in_order(parse, text: str):
    """The message of parse's InputError, or in_order of its graph."""
    try:
        g = parse(text)
    except InputError as exc:
        return f"InputError: {exc}"
    return in_order(g)


def spy_on_parse_rows(patch) -> list[str]:
    """Patch graph._parse_rows (through a pytest MonkeyPatch) to record
    every text it reads and then parse it as before; return the record."""
    calls, parse_rows = [], graph._parse_rows

    def spy(text):
        calls.append(text)
        return parse_rows(text)

    patch.setattr(graph, "_parse_rows", spy)
    return calls


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def caterpillar_graph(spine: int, legs: int) -> Graph:
    """A spine path with `legs` pendant leaves on every spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return build_graph(spine * (legs + 1), edges)


def golden_corpus() -> dict[str, Graph]:
    """Fixed seeded graphs whose cover JSON is pinned by hash: random block
    graphs and the path, star, caterpillar and large-block families."""
    from antcover.generate import random_block_graph

    return {
        "random-40": random_block_graph(40, seed=1),
        "random-150": random_block_graph(150, seed=2),
        "random-300": random_block_graph(300, seed=3),
        "random-edgy-200": random_block_graph(200, seed=4, edge_block_prob=0.9),
        "random-cliquey-200": random_block_graph(200, seed=5, edge_block_prob=0.2, max_block=8),
        "path-100": path_graph(100),
        "star-60": star_graph(60),
        "caterpillar-30x3": caterpillar_graph(30, 3),
        "large-blocks-300": random_block_graph(300, seed=6, edge_block_prob=0.0, max_block=40),
    }


def triangle_chain_graph(triangles: int) -> Graph:
    """Triangles glued in a line, consecutive ones sharing one vertex."""
    edges = []
    for j in range(triangles):
        a, b, c = 2 * j, 2 * j + 1, 2 * j + 2
        edges += [(a, b), (a, c), (b, c)]
    return build_graph(2 * triangles + 1, edges)


def broom_graph(handle: int, bristles: int) -> Graph:
    """A path of `handle` vertices whose last vertex carries `bristles` leaves."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return build_graph(handle + bristles, edges)


def shuffled(g: Graph, seed: int) -> Graph:
    """g with its vertex ids 0..n-1 permuted by a seeded shuffle."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return build_graph(len(perm), [(perm[a], perm[b]) for a, b in g.edges])


def clique_tree_graph(n: int, seed: int, lo: int = 20, hi: int = 60) -> Graph:
    """A tree of cliques on n vertices, of sizes lo..hi (the last one
    smaller if n requires), each glued on a seeded random earlier vertex."""
    rng = random.Random(seed)
    edges = []
    count = 1
    while count < n:
        size = min(rng.randint(lo, hi), n - count + 1)
        members = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    return build_graph(n, edges)


def benchmark_scale_corpus() -> dict[str, Graph]:
    """Graphs at the size of the benchmark inputs: a random block graph of
    5,000 vertices and the regular families at about 3,000, with their ids
    shuffled as the benchmark shuffles them; a 2,000-vertex tree of
    20-60-vertex cliques like the solve-dense inputs, whose big leaf
    blocks take peel case 2; and big blocks mixed with edges, with ids
    far from zero, which reach every case through big blocks."""
    from antcover.generate import random_block_graph
    from antcover.graph import relabel_offset

    return {
        "random-5000": random_block_graph(5000, seed=3),
        "path-3000": shuffled(path_graph(3000), 1),
        "caterpillar-3000": shuffled(caterpillar_graph(750, 3), 2),
        "triangle-chain-3001": shuffled(triangle_chain_graph(1500), 3),
        "broom-3000": shuffled(broom_graph(1500, 1500), 4),
        "blocks-2000": clique_tree_graph(2000, seed=7),
        "mixed-blocks-3000": relabel_offset(
            random_block_graph(3000, seed=8, edge_block_prob=0.5, max_block=30), 10**6
        ),
    }


def connected_block_graphs(max_vertices: int) -> dict[int, list[Graph]]:
    """Every connected block graph of 2..max_vertices vertices, one per
    isomorphism class, by vertex count.

    A connected block graph is its vertex-block incidence tree: a
    bipartite tree whose block nodes have degree at least 2, each block
    the clique on its node's neighbours. The graph determines the tree, so
    distinct trees give non-isomorphic graphs. With n vertex nodes and b
    block nodes the tree's n + b - 1 edges meet each block node at least
    twice, so n > b, and only the smaller side can be the blocks.
    """
    import networkx as nx

    out: dict[int, list[Graph]] = {n: [] for n in range(2, max_vertices + 1)}
    for order in range(3, 2 * max_vertices):
        for tree in nx.nonisomorphic_trees(order):
            sides = nx.bipartite.color(tree)
            blocks = [x for x, side in sides.items() if side]
            members = [x for x, side in sides.items() if not side]
            if len(blocks) > len(members):
                blocks, members = members, blocks
            if len(members) > max_vertices or any(tree.degree(x) < 2 for x in blocks):
                continue
            index = {x: i for i, x in enumerate(sorted(members))}
            edges = [
                (index[a], index[b]) for x in blocks for a in tree[x] for b in tree[x] if index[a] < index[b]
            ]
            out[len(members)].append(build_graph(len(members), edges))
    return out


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, sorted by minimum vertex id."""
    seen: set[int] = set()
    comps = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def shape_check(g: Graph) -> str:
    """Classify a connected graph with at least one edge.

    Returns "clique" when all pairs are adjacent, "star" when one center
    is adjacent to all others and no other pair is adjacent, else
    "neither". Ties go to clique, so K2 reports clique.
    """
    n = g.vertex_count
    if g.edge_count == 0:
        raise InputError("shape_check requires at least one edge")
    if len(connected_components(g)) != 1:
        raise InputError("shape_check requires a connected graph")
    if all(g.degree(v) == n - 1 for v in g.vertices):
        return "clique"
    centers = [v for v in g.vertices if g.degree(v) == n - 1]
    if centers:
        center = centers[0]
        if all(g.degree(v) == 1 for v in g.vertices if v != center):
            return "star"
    return "neither"


def spider_graph() -> Graph:
    """Triangle 0,1,2 with one pendant edge at each triangle vertex."""
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def brute_is_cointerval(g: Graph) -> bool:
    """Try every vertex ordering against the prefix-neighbourhood condition."""
    verts = sorted(g.vertices)
    for perm in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(perm)}
        ok = True
        for v in verts:
            ps = sorted(pos[u] for u in g.neighbors(v) if pos[u] < pos[v])
            if ps and ps[-1] != len(ps) - 1:
                ok = False
                break
        if ok:
            return True
    return False


def has_forbidden_threshold_subgraph(g: Graph) -> bool:
    """Induced P4, C4 or 2K2 detection by scanning 4-subsets."""
    verts = sorted(g.vertices)
    for quad in itertools.combinations(verts, 4):
        edges = [
            (a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)
        ]
        if len(edges) == 2:
            (a, b), (c, d) = edges
            if {a, b}.isdisjoint({c, d}):
                return True  # 2K2
        elif len(edges) in (3, 4):
            deg = {v: 0 for v in quad}
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            degs = sorted(deg.values())
            if len(edges) == 3 and degs == [1, 1, 2, 2]:
                return True  # P4
            if len(edges) == 4 and degs == [2, 2, 2, 2]:
                return True  # C4
    return False


def near_leaf_candidates(g: Graph) -> list[tuple[int, int | None]]:
    """All (block index, anchor) pairs satisfying the near-leaf definition."""
    bd = block_decomposition(g)
    blocks = bd.blocks
    internal = {i for i, cuts in enumerate(bd.block_cuts) if len(cuts) >= 2}
    found = []
    for i in internal:
        hits = []
        # members are indices, increasing like the ids they stand for
        for x, v in zip(bd.members[i], sorted(blocks[i])):
            if any(j != i and j in internal for j in bd.incidence[x]):
                hits.append(v)
        if len(hits) <= 1:
            found.append((i, hits[0] if hits else None))
    return found


def least_near_leaf(g: Graph) -> tuple[int, int | None]:
    """The near-leaf (block index, anchor) pair whose block comes first by
    (least vertex, block index), the key of the engine's near-leaf heap."""
    blocks = block_decomposition(g).blocks
    return min(near_leaf_candidates(g), key=lambda c: (min(blocks[c[0]]), c[0]))


def _clique_edges(block):
    members = sorted(block)
    return {(a, b) for i, a in enumerate(members) for b in members[i + 1:]}


def _naive_turn(g: Graph, region) -> tuple[int, int]:
    """When the component region of the residual graph takes its next
    iteration in the global order: its least big leaf block, else its
    least near-leaf block, else case 1 after every other case, all by
    least vertex."""
    h = g.induced(region)
    if shape_check(h) in ("clique", "star"):
        return 2, min(region)
    bd = block_decomposition(h)
    big = [min(b) for b, cuts in zip(bd.blocks, bd.block_cuts) if len(cuts) == 1 and len(b) >= 3]
    if big:
        return 0, min(big)
    return 1, min(bd.blocks[least_near_leaf(h)[0]])


def naive_cover(g: Graph, kind: str):
    """Slow reference for the cover loop: fresh decomposition every step.

    Each step decomposes every component of the residual graph and takes
    the least big leaf block of all, else the least near-leaf block, else
    case 1 on the component with the least vertex. Returns element tuples
    and trace tuples in the engine's shapes so runs can be compared field
    by field.
    """
    alive = set(g.vertices)
    elements, traces = [], []
    while True:
        regions = [c for c in connected_components(g.induced(alive)) if len(c) >= 2]
        if not regions:
            break
        region = set(min(regions, key=lambda c: _naive_turn(g, c)))
        h = g.induced(region)
        bd = block_decomposition(h)
        shape = shape_check(h)
        if shape == "clique":
            bl = frozenset(region)
            u = min(bl)
            el = (bl, u, u, frozenset(region), frozenset(_clique_edges(bl)))
            case, chosen, prot, apex, removed = "1", None, None, (u,), set(region)
        elif shape == "star":
            center = max(h.vertices, key=h.degree)
            leaves = region - {center}
            bl = frozenset({center, min(leaves)})
            eset = frozenset(norm_edge(center, leaf) for leaf in leaves)
            el = (bl, center, center, frozenset(region), eset)
            case, chosen, prot, apex, removed = "1", None, None, (center,), set(region)
        else:
            big = [
                (min(b), i)
                for i, (b, cuts) in enumerate(zip(bd.blocks, bd.block_cuts))
                if len(cuts) == 1 and len(b) >= 3
            ]
            if big:
                _, qi = min(big)
                bl = bd.blocks[qi]
                v = bd.block_cuts[qi][0]
                nres = set(h.neighbors(v))
                eset = frozenset(_clique_edges(bl) | {norm_edge(v, w) for w in nres})
                el = (bl, v, v, frozenset(bl | nres), eset)
                case, chosen, prot, apex, removed = "2", bl, None, (v,), set(bl)
            else:
                qi, anchor = least_near_leaf(h)
                bl = bd.blocks[qi]
                cuts = list(bd.block_cuts[qi])
                v = anchor if anchor is not None else cuts[0]
                if kind == "cointerval":
                    if len(cuts) == 2:
                        u = next(c for c in cuts if c != v)
                        eset = (
                            _clique_edges(bl)
                            | {norm_edge(u, w) for w in h.neighbors(u)}
                            | {norm_edge(v, w) for w in h.neighbors(v)}
                        )
                        vs = frozenset(bl | set(h.neighbors(u)) | set(h.neighbors(v)))
                        el = (bl, min(u, v), max(u, v), vs, frozenset(eset))
                        case, chosen, prot, apex = "3a", bl, v, (u, v)
                        removed = set(bl) | set(h.neighbors(u))
                    else:
                        rest = [c for c in cuts if c != v]
                        u, w = rest[0], rest[1]
                        eset = (
                            _clique_edges(bl)
                            | {norm_edge(u, x) for x in h.neighbors(u)}
                            | {norm_edge(w, x) for x in h.neighbors(w)}
                        )
                        vs = frozenset(bl | set(h.neighbors(u)) | set(h.neighbors(w)))
                        el = (bl, min(u, w), max(u, w), vs, frozenset(eset))
                        case, chosen, prot, apex = "3b", bl, v, (u, w)
                        if len(cuts) == 3:
                            removed = (set(bl) | set(h.neighbors(u)) | set(h.neighbors(w))) - {v}
                        else:
                            s_u = {x for x in h.neighbors(u) if h.degree(x) == 1}
                            s_w = {x for x in h.neighbors(w) if h.degree(x) == 1}
                            removed = s_u | s_w | {u, w}
                else:
                    u = next(c for c in cuts if c != v)
                    eset = _clique_edges(bl) | {norm_edge(u, x) for x in h.neighbors(u)}
                    el = (bl, u, u, frozenset(bl | set(h.neighbors(u))), frozenset(eset))
                    apex = (u,)
                    chosen, prot = bl, v
                    if len(cuts) == 2:
                        case = "3*-2cuts"
                        removed = (set(bl) | set(h.neighbors(u))) - {v}
                    else:
                        case = "3*-many"
                        removed = {x for x in h.neighbors(u) if h.degree(x) == 1} | {u}
        elements.append(el)
        traces.append((frozenset(region), case, chosen, prot, tuple(apex), frozenset(removed)))
        alive -= removed
    return elements, traces


def engine_run_tuples(g: Graph, kind: str):
    """The production run, flattened into the naive twin's tuple shapes."""
    cover, traces = (
        min_cointerval_cover(g) if kind == "cointerval" else min_threshold_cover(g)
    )
    els = [(e.block, e.apex_u, e.apex_v, e.vertices, e.edges) for e in cover.elements]
    trs = [
        (t.component, t.case_taken, t.chosen_block, t.protected_vertex, t.apexes, t.removed)
        for t in traces
    ]
    return els, trs


class BatchRecordingPeel(peel._Peel):
    """The peel engine, recording each vertex set that remove_all deletes."""

    def __init__(self, bd):
        super().__init__(bd)
        self.batches: list[frozenset[int]] = []

    def remove_all(self, removed):
        self.batches.append(removed)
        super().remove_all(removed)

    def removed_sets(self) -> list[frozenset[int]]:
        """The recorded batches in vertex ids, in the order deleted."""
        ids = self.ids
        return self.batches if ids is None else [frozenset(ids[x] for x in b) for b in self.batches]


def counted_run(bd, kind: str, engine=BatchRecordingPeel):
    """peel_count's value on the decomposition bd, and the engine it ran
    on, an instance of engine, which records the batches that the count
    loop deleted."""
    made = []

    def make(bd):
        made.append(engine(bd))
        return made[-1]

    original, peel._Peel = peel._Peel, make
    try:
        size = peel.peel_count(bd, kind)
    finally:
        peel._Peel = original
    (st,) = made
    return size, st
