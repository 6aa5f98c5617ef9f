"""Brute-force exact co-boxicity and threshold co-dimension for small graphs.

Ground truth for the polynomial algorithms: enumerate maximal co-interval
(or threshold) edge sets, then solve exact minimum set cover over them.
"""

from __future__ import annotations

from typing import NamedTuple

from .blocks import is_block_graph
from .cointerval import is_threshold, maximal_ants
from .errors import InputError, SizeLimitError
from .graph import Edge, Graph, norm_edge

PERMUTATION_BOUND = 9
BLOCK_GRAPH_BOUND = 14


class SetCoverInstance(NamedTuple):
    universe: frozenset
    candidates: tuple[frozenset, ...]


def all_sigma_edge_sets(g: Graph) -> set[frozenset[Edge]]:
    """Edge sets of every ordering-generated subgraph of g.

    Prefix search instead of raw permutations: once the shrinking working
    set is empty the edge set is final, so whole permutation families
    collapse into one branch.
    """
    results: set[frozenset[Edge]] = set()
    verts = sorted(g.vertices)

    def extend(current: set[int] | None, used: set[int], edges: frozenset[Edge]) -> None:
        if current is not None and not current:
            results.add(edges)
            return
        remaining = [v for v in verts if v not in used]
        if not remaining:
            results.add(edges)
            return
        for v in remaining:
            nxt = set(g.neighbors(v)) if current is None else current & g.neighbors(v)
            grown = edges | {norm_edge(v, w) for w in nxt}
            extend(nxt, used | {v}, grown)

    extend(None, set(), frozenset())
    return results


def _maximal_ant_edge_sets(g: Graph, two_apex: bool) -> list[frozenset[Edge]] | None:
    """Edge sets of the maximal big ants when g is a block graph, else None.

    Raises SizeLimitError above the oracle bound for g: BLOCK_GRAPH_BOUND
    for a block graph, PERMUTATION_BOUND for any other.
    """
    block = is_block_graph(g)
    bound, name = (BLOCK_GRAPH_BOUND, "block-graph") if block else (PERMUTATION_BOUND, "general-graph")
    if g.vertex_count > bound:
        raise SizeLimitError(f"{g.vertex_count} vertices exceeds the {name} oracle bound of {bound}")
    return [ant.edges for ant in maximal_ants(g, two_apex)] if block else None


def enumerate_maximal_cointerval_edge_sets(g: Graph) -> list[frozenset[Edge]]:
    """Containment-maximal co-interval edge sets, deterministically ordered.

    Block graphs use the big-ant characterization (polynomially many
    candidates); general graphs enumerate ordering-generated subgraphs.
    """
    ants = _maximal_ant_edge_sets(g, two_apex=True)
    if ants is not None:
        return ants
    sets = all_sigma_edge_sets(g)
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return sorted(maximal, key=lambda s: (len(s), sorted(s)), reverse=True)


def maximal_threshold_edge_sets(g: Graph) -> list[frozenset[Edge]]:
    """Containment-maximal threshold edge sets of g."""
    ants = _maximal_ant_edge_sets(g, two_apex=False)
    if ants is not None:
        return ants

    def edge_graph(edges: frozenset[Edge]) -> Graph:
        verts = {v for e in edges for v in e}
        return Graph.from_data(verts, edges)

    frontier = {frozenset([e]) for e in g.edges}
    good = set(frontier)
    bad: set[frozenset[Edge]] = set()
    maximal: set[frozenset[Edge]] = set()
    while frontier:
        nxt = set()
        for s in frontier:
            grew = False
            for e in g.edges - s:
                s2 = s | {e}
                if s2 in good:
                    grew = True
                    continue
                if s2 in bad:
                    continue
                if is_threshold(edge_graph(s2)):
                    good.add(s2)
                    nxt.add(s2)
                    grew = True
                else:
                    bad.add(s2)
            if not grew:
                maximal.add(s)
        frontier = nxt
    keep = [s for s in maximal if not any(s < t for t in maximal)]
    return sorted(keep, key=lambda s: (len(s), sorted(s)), reverse=True)


def min_set_cover_exact(inst: SetCoverInstance) -> tuple[int, list[int]]:
    """Exact minimum cover size and one optimal witness (candidate indices).

    Iterative deepening on the cover size with branching over the
    candidates of a least-covered element; dominated candidates are
    discarded up front.
    """
    universe = set(inst.universe)
    if not universe:
        return 0, []
    order = sorted(
        range(len(inst.candidates)),
        key=lambda i: (-len(inst.candidates[i]), i),
    )
    pruned: list[int] = []
    for i in order:
        if not any(inst.candidates[i] <= inst.candidates[j] for j in pruned):
            pruned.append(i)
    covered_all = set().union(*(inst.candidates[i] for i in pruned)) if pruned else set()
    if not universe <= covered_all:
        raise InputError("set cover instance is infeasible")

    def search(uncovered: set, chosen: list[int], budget: int) -> list[int] | None:
        if not uncovered:
            return list(chosen)
        if budget == 0:
            return None
        best = max(len(inst.candidates[i] & uncovered) for i in pruned)
        if best * budget < len(uncovered):
            return None
        target = min(
            uncovered,
            key=lambda e: sum(1 for i in pruned if e in inst.candidates[i]),
        )
        for i in pruned:
            if target in inst.candidates[i]:
                chosen.append(i)
                found = search(uncovered - inst.candidates[i], chosen, budget - 1)
                if found is not None:
                    return found
                chosen.pop()
        return None

    for k in range(1, len(pruned) + 1):
        found = search(set(universe), [], k)
        if found is not None:
            return k, found
    raise InputError("set cover instance is infeasible")


def _brute_cover_size(g: Graph, maximal_edge_sets) -> int:
    """Exact minimum number of the maximal edge sets of g covering its edges."""
    if g.edge_count == 0:
        return 0
    return min_set_cover_exact(SetCoverInstance(g.edges, tuple(maximal_edge_sets(g))))[0]


def brute_coboxicity(g: Graph) -> int:
    """Minimum number of co-interval subgraphs covering all edges."""
    return _brute_cover_size(g, enumerate_maximal_cointerval_edge_sets)


def brute_cothdim(g: Graph) -> int:
    """Minimum number of threshold subgraphs covering all edges."""
    return _brute_cover_size(g, maximal_threshold_edge_sets)
