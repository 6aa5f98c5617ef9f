"""Seeded random block graph generation."""

from __future__ import annotations

import random

from .errors import InputError
from .graph import Graph, build_graph, clique_edges


def random_block_graph(
    n: int,
    seed: int,
    edge_block_prob: float = 0.6,
    max_block: int = 5,
) -> Graph:
    """Connected block graph on exactly n vertices, reproducible from seed.

    Grows a random tree of blocks: each new block is a clique whose size
    is 2 with probability edge_block_prob and otherwise uniform in
    3..max_block, glued onto a uniformly random existing vertex. With
    max_block 2 every block is an edge.
    """
    if n < 1:
        raise InputError("graph needs at least one vertex")
    if max_block < 2:
        raise InputError("blocks need at least two vertices")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        if rng.random() < edge_block_prob or max_block == 2:
            size = 2
        else:
            size = rng.randint(3, max_block)
        size = min(size, n - count + 1)
        attach = rng.randrange(count)
        members = [attach] + list(range(count, count + size - 1))
        count += size - 1
        edges += clique_edges(members)
    return build_graph(n, edges)
