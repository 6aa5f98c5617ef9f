"""Growth guard: the memory a user-facing path takes per unit of input
stays flat as the input grows about 16-fold.

Sizes, not seconds, so timing noise cannot fail it. Each family is built
at a small and a large size; for each path the tracemalloc peak per
(n + m) at the large size must be within 2x of that at the small size.
Linear paths read 0.7-1.4 here: set tables grow in steps, so single
steps of 4x in size can read 5-7x, which is why the span is 16-fold and
the bound 2x. A path that grows as m^1.5 reads about 4x over this span,
and a quadratic one about 16x.
"""

import tracemalloc

import pytest

from antcover.cover import coboxicity, cothdim
from antcover.generate import random_block_graph
from antcover.graph import Graph, build_graph, parse_edgelist, serialize_edgelist
from helpers import caterpillar_graph, clique_tree_graph, path_graph

BOUND = 2.0


def clique_corona(k: int) -> Graph:
    """K_k with one pendant leaf on each of its vertices."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return build_graph(2 * k, edges + [(i, k + i) for i in range(k)])


# (family, builder, small size, large size)
FAMILIES = [
    ("random", lambda n: random_block_graph(n, seed=11), 2_000, 32_000),
    ("caterpillar", lambda spine: caterpillar_graph(spine, 3), 500, 8_000),
    ("clique-tree", lambda n: clique_tree_graph(n, seed=12), 1_000, 16_000),
    ("clique-corona", clique_corona, 60, 240),
]


def _peak(call) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks_per_size(g: Graph) -> dict[str, float]:
    """tracemalloc peak of each path over n + m, on a graph parsed afresh
    so that no cache of an earlier call is counted or reused."""
    text = serialize_edgelist(g)
    size = g.vertex_count + g.edge_count
    parsed, parse_peak = _peak(lambda: parse_edgelist(text))
    _, value_peak = _peak(lambda: (coboxicity(parsed), cothdim(parsed)))
    return {"parse_edgelist": parse_peak / size, "coboxicity+cothdim": value_peak / size}


@pytest.mark.parametrize("family, build, small, large", FAMILIES, ids=[row[0] for row in FAMILIES])
def test_peak_memory_per_input_size_stays_flat(family, build, small, large):
    # the modules each path loads on first use, outside the measurement
    warm = parse_edgelist(serialize_edgelist(path_graph(4)))
    coboxicity(warm), cothdim(warm)
    before, after = _peaks_per_size(build(small)), _peaks_per_size(build(large))
    ratios = {path: after[path] / before[path] for path in before}
    assert all(ratio <= BOUND for ratio in ratios.values()), (family, ratios)
