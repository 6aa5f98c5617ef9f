"""Acceptance harness: one runnable check per shipped guarantee.

Each criterion returns a CriterionResult; run_all executes them in order
and reuses the covers emitted by the earlier criteria for the validity and
box-representation checks. All randomness is seeded, so the harness is
reproducible bit for bit.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .blocks import block_decomposition
from .cointerval import (
    ant_order,
    big_ant,
    is_cointerval,
    is_threshold,
    prefix_counts,
    sigma_subgraph,
)
from .cover import (
    Cover,
    coboxicity,
    cover_to_box_representation,
    is_structural_big_ant,
    min_cointerval_cover,
    min_threshold_cover,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from .generate import random_block_graph
from .graph import Graph, build_graph, disjoint_union, norm_edge
from .oracle import brute_coboxicity, brute_cothdim

PATH_LIMIT = 60
TREE_LIMIT = 9
SMALL_RANDOM = 500
SMALL_VERTICES = 12
BOUND_GRAPHS = 1000
BOUND_VERTICES = 300
PAIR_COUNT = 200
PROPERTY_TRIALS = 1000
HUGE_VERTICES = 100_000


class CriterionResult(NamedTuple):
    number: int
    slug: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.number:>2} {self.slug} ({self.seconds:.2f}s): {self.detail}"


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def free_trees(max_order: int) -> list[Graph]:
    """One representative per isomorphism class of trees, orders 2..max_order."""
    import networkx as nx

    out = []
    for order in range(2, max_order + 1):
        for t in nx.nonisomorphic_trees(order):
            mapping = {v: i for i, v in enumerate(sorted(t.nodes))}
            out.append(
                build_graph(order, [(mapping[a], mapping[b]) for a, b in t.edges])
            )
    return out


def small_block_corpus() -> list[Graph]:
    corpus = free_trees(TREE_LIMIT)
    for i in range(SMALL_RANDOM):
        n = 2 + (i % (SMALL_VERTICES - 1))
        corpus.append(random_block_graph(n, seed=1000 + i))
    return corpus


def property_one_verbatim(edges, order) -> bool:
    """The ordering condition checked literally over all index triples."""
    es = set(edges)
    n = len(order)
    for k in range(n):
        for j in range(k):
            if norm_edge(order[j], order[k]) in es:
                for i in range(j):
                    if norm_edge(order[i], order[k]) not in es:
                        return False
    return True


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


class AcceptanceRun:
    """Executes the criteria in order, sharing emitted covers."""

    def __init__(self, fast: bool = False):
        self.fast = fast
        self.scale = 0.1 if fast else 1.0
        self.emitted: list[tuple[Graph, Cover, list]] = []
        self.small_pairs: list[tuple[Graph, Cover]] = []

    def _count(self, full: int, minimum: int = 5) -> int:
        return max(minimum, int(full * self.scale))

    def _record(self, g: Graph, cover: Cover, traces) -> None:
        self.emitted.append((g, cover, traces))

    # -- criteria -----------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        start = time.perf_counter()
        bad = []
        covers = []
        for n in range(2, PATH_LIMIT + 1):
            g = path_graph(n)
            cover, traces = min_cointerval_cover(g)
            covers.append((g, cover, traces))
            if len(cover.elements) != path_coboxicity(n):
                bad.append(n)
        elapsed = time.perf_counter() - start
        for item in covers:
            self._record(*item)
        passed = not bad and elapsed < 1.0
        detail = (
            f"paths n=2..{PATH_LIMIT} match ceil((n-1)/3)"
            if not bad
            else f"mismatch at n={bad}"
        )
        if elapsed >= 1.0:
            detail += f"; too slow ({elapsed:.2f}s >= 1s)"
        return CriterionResult(1, "path-formula", passed, detail, elapsed)

    def criterion_2(self) -> CriterionResult:
        start = time.perf_counter()
        corpus = small_block_corpus()
        if self.fast:
            corpus = corpus[:: max(1, len(corpus) // 60)]
        mismatches = 0
        for g in corpus:
            cover, traces = min_cointerval_cover(g)
            self._record(g, cover, traces)
            self.small_pairs.append((g, cover))
            if len(cover.elements) != brute_coboxicity(g):
                mismatches += 1
        elapsed = time.perf_counter() - start
        passed = mismatches == 0 and elapsed < 300.0
        detail = f"{len(corpus)} graphs, {mismatches} mismatches"
        return CriterionResult(2, "oracle-coboxicity", passed, detail, elapsed)

    def criterion_3(self) -> CriterionResult:
        start = time.perf_counter()
        corpus = small_block_corpus()
        if self.fast:
            corpus = corpus[:: max(1, len(corpus) // 60)]
        mismatches = 0
        for g in corpus:
            cover, traces = min_threshold_cover(g)
            self._record(g, cover, traces)
            if len(cover.elements) != brute_cothdim(g):
                mismatches += 1
        elapsed = time.perf_counter() - start
        detail = f"{len(corpus)} graphs, {mismatches} mismatches"
        return CriterionResult(3, "oracle-threshold", passed=mismatches == 0, detail=detail, seconds=elapsed)

    def criterion_4(self) -> CriterionResult:
        start = time.perf_counter()
        count = self._count(BOUND_GRAPHS, 100)
        violations = 0
        for i in range(count):
            n = 2 + ((i * 37) % (BOUND_VERTICES - 1))
            g = random_block_graph(n, seed=5000 + i)
            ci, ti = min_cointerval_cover(g)
            th, tt = min_threshold_cover(g)
            self._record(g, ci, ti)
            self._record(g, th, tt)
            a, b = len(ci.elements), len(th.elements)
            if not a <= b <= 2 * a:
                violations += 1
        elapsed = time.perf_counter() - start
        detail = f"{count} graphs up to {BOUND_VERTICES} vertices, {violations} bound violations"
        return CriterionResult(4, "threshold-vs-cobox-bounds", violations == 0, detail, elapsed)

    def criterion_5(self) -> CriterionResult:
        start = time.perf_counter()
        bad = 0
        elements = 0
        for g, cover, traces in self.emitted:
            report = verify_cover(g, cover)
            if not report.valid:
                bad += 1
                continue
            try:
                validate_run(g, cover, traces)
            except Exception:
                bad += 1
                continue
            for el in cover.elements:
                elements += 1
                if not is_structural_big_ant(g, el):
                    bad += 1
        elapsed = time.perf_counter() - start
        detail = f"{len(self.emitted)} covers / {elements} elements verified, {bad} failures"
        return CriterionResult(5, "cover-validity", bad == 0, detail, elapsed)

    def criterion_6(self) -> CriterionResult:
        start = time.perf_counter()
        rng = random.Random(606)
        trials = self._count(PROPERTY_TRIALS, 100)
        failures = 0
        for _ in range(trials):
            n = rng.randint(1, SMALL_VERTICES)
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            sigma = list(g.vertices)
            rng.shuffle(sigma)
            sub = sigma_subgraph(g, sigma)
            sg = Graph.from_data(sub.vertices, sub.edges)
            if is_cointerval(sg) is None:
                failures += 1
                continue
            restricted = tuple(v for v in sigma if v in sub.vertices)
            if not property_one_verbatim(sub.edges, restricted):
                failures += 1
        elapsed = time.perf_counter() - start
        detail = f"{trials} (graph, ordering) pairs, {failures} failures"
        return CriterionResult(6, "ordering-subgraphs-cointerval", failures == 0, detail, elapsed)

    def criterion_7(self) -> CriterionResult:
        start = time.perf_counter()
        rng = random.Random(707)
        trials = self._count(PROPERTY_TRIALS, 100)
        failures = 0
        for i in range(trials):
            g = random_block_graph(rng.randint(2, 40), seed=7000 + i)
            bd = block_decomposition(g)
            blocks = [b for b in bd.blocks if len(b) >= 2]
            block = rng.choice(blocks)
            u, v = rng.choice(sorted(block)), rng.choice(sorted(block))
            two = big_ant(g, block, u, v)
            one = big_ant(g, block, u, u)
            order_two, order_one = ant_order(two), ant_order(one)
            ok = (
                is_cointerval(Graph.from_data(two.vertices, two.edges)) is not None
                and is_threshold(Graph.from_data(one.vertices, one.edges))
                and prefix_counts(two.vertices, two.edges, order_two) is not None
                and prefix_counts(one.vertices, one.edges, order_one, threshold=True) is not None
                and property_one_verbatim(two.edges, order_two)
                and property_one_verbatim(one.edges, order_one)
            )
            if not ok:
                failures += 1
        elapsed = time.perf_counter() - start
        detail = f"{trials} random big ants, {failures} failures"
        return CriterionResult(7, "big-ant-recognition", failures == 0, detail, elapsed)

    def criterion_8(self) -> CriterionResult:
        start = time.perf_counter()
        rng = random.Random(808)
        trials = self._count(PAIR_COUNT, 40)
        failures = 0
        for i in range(trials):
            g1 = random_block_graph(rng.randint(1, 40), seed=8000 + 2 * i)
            g2 = random_block_graph(rng.randint(1, 40), seed=8001 + 2 * i)
            union = disjoint_union(g1, g2)
            if coboxicity(union) != coboxicity(g1) + coboxicity(g2):
                failures += 1
        elapsed = time.perf_counter() - start
        detail = f"{trials} disjoint-union pairs, {failures} additivity failures"
        return CriterionResult(8, "component-additivity", failures == 0, detail, elapsed)

    def criterion_9(self) -> CriterionResult:
        start = time.perf_counter()
        failures = 0
        for g, cover in self.small_pairs:
            rep = cover_to_box_representation(g, cover)
            if not rep.satisfies(g):
                failures += 1
        elapsed = time.perf_counter() - start
        detail = f"{len(self.small_pairs)} box models checked pairwise, {failures} failures"
        return CriterionResult(9, "box-representation", failures == 0, detail, elapsed)

    def criterion_10(self) -> CriterionResult:
        n = 20_000 if self.fast else HUGE_VERTICES
        g = random_block_graph(n, seed=424242)
        problems = []
        start = time.perf_counter()
        cover, traces = min_cointerval_cover(g, trace_components=False)
        t_cover = time.perf_counter() - start
        if t_cover >= 60:
            problems.append(f"co-interval cover took {t_cover:.1f}s")
        if any(not t.removed for t in traces):
            problems.append("co-interval run has an empty removal")
        covered = set()
        for el in cover.elements:
            covered |= el.edges
        if covered != g.edges:
            problems.append("co-interval cover misses edges")

        start2 = time.perf_counter()
        tcover, ttraces = min_threshold_cover(g, trace_components=False)
        t_thresh = time.perf_counter() - start2
        if t_thresh >= 60:
            problems.append(f"threshold cover took {t_thresh:.1f}s")
        if any(not t.removed for t in ttraces):
            problems.append("threshold run has an empty removal")
        covered = set()
        for el in tcover.elements:
            covered |= el.edges
        if covered != g.edges:
            problems.append("threshold cover misses edges")

        detail = (
            f"n={n}: co-interval {t_cover:.1f}s ({len(cover.elements)} elements), "
            f"threshold {t_thresh:.1f}s ({len(tcover.elements)} elements)"
        )
        if problems:
            detail += "; " + "; ".join(problems)
        return CriterionResult(
            10, "large-instance-runtime", not problems, detail, t_cover + t_thresh
        )


def run_all(fast: bool = False) -> list[CriterionResult]:
    run = AcceptanceRun(fast=fast)
    return [
        run.criterion_1(),
        run.criterion_2(),
        run.criterion_3(),
        run.criterion_4(),
        run.criterion_5(),
        run.criterion_6(),
        run.criterion_7(),
        run.criterion_8(),
        run.criterion_9(),
        run.criterion_10(),
    ]
