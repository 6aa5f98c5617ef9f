"""Acceptance harness: one runnable check per shipped guarantee.

CRITERIA is the table of checks: number, slug, time limit and check.
run_all runs them in table order, times each and builds its
CriterionResult. Criteria 1-4 keep the covers they compute on the run,
criterion 5 checks all of them again with verify_cover and validate_run,
which also checks that each element is the big ant over its block and
apexes in the residual graph of its iteration, and criterion 9 builds the
box model of each co-interval cover of criterion 2; both fail when there
was nothing to check. Criterion 10 checks its two 100k covers with
verify_cover and validate_run. README.md lists what each criterion
checks, at its full and --quick (fast) sizes. All randomness is seeded,
so the harness is reproducible bit for bit.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from functools import cached_property, partial
from typing import NamedTuple

from .blocks import block_decomposition
from .cointerval import (
    COINTERVAL,
    THRESHOLD,
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
    min_cointerval_cover,
    min_cover,
    min_threshold_cover,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from .errors import InputError
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
    """The state the criteria of one run share: the small corpus of
    criteria 2 and 3, built once, and the covers the earlier criteria
    emitted, which criteria 5 and 9 check again."""

    def __init__(self, fast: bool = False):
        self.fast = fast
        self.emitted: list[tuple[Graph, Cover, list]] = []
        self.small_pairs: list[tuple[Graph, Cover]] = []

    def count(self, full: int, minimum: int) -> int:
        return max(minimum, full // 10 if self.fast else full)

    @cached_property
    def corpus(self) -> list[Graph]:
        corpus = small_block_corpus()
        return corpus[:: max(1, len(corpus) // 60)] if self.fast else corpus

    def result(self, number: int, slug: str, limit: float | None, check: Check) -> CriterionResult:
        """Run one criterion's check, timed; a check that takes limit
        seconds or more fails."""
        start = time.perf_counter()
        passed, detail = check(self)
        seconds = time.perf_counter() - start
        if limit is not None and seconds >= limit:
            passed = False
            detail += f"; too slow ({seconds:.2f}s >= {limit:g}s)"
        return CriterionResult(number, slug, passed, detail, seconds)


Check = Callable[[AcceptanceRun], tuple[bool, str]]

# -- criteria ---------------------------------------------------------


def _path_formula(run: AcceptanceRun) -> tuple[bool, str]:
    bad = []
    for n in range(2, PATH_LIMIT + 1):
        g = path_graph(n)
        cover, traces = min_cointerval_cover(g)
        run.emitted.append((g, cover, traces))
        if len(cover.elements) != path_coboxicity(n):
            bad.append(n)
    if bad:
        return False, f"mismatch at n={bad}"
    return True, f"paths n=2..{PATH_LIMIT} match ceil((n-1)/3)"


def _oracle(kind: str, brute: Callable[[Graph], int], run: AcceptanceRun) -> tuple[bool, str]:
    mismatches = 0
    for g in run.corpus:
        cover, traces = min_cover(g, kind)
        run.emitted.append((g, cover, traces))
        if kind == COINTERVAL:  # the covers criterion 9 models
            run.small_pairs.append((g, cover))
        if len(cover.elements) != brute(g):
            mismatches += 1
    return mismatches == 0, f"{len(run.corpus)} graphs, {mismatches} mismatches"


def _bounds(run: AcceptanceRun) -> tuple[bool, str]:
    count = run.count(BOUND_GRAPHS, 100)
    violations = 0
    for i in range(count):
        n = 2 + ((i * 37) % (BOUND_VERTICES - 1))
        g = random_block_graph(n, seed=5000 + i)
        ci, ti = min_cointerval_cover(g)
        th, tt = min_threshold_cover(g)
        run.emitted += [(g, ci, ti), (g, th, tt)]
        a, b = len(ci.elements), len(th.elements)
        if not a <= b <= 2 * a:
            violations += 1
    detail = f"{count} graphs up to {BOUND_VERTICES} vertices, {violations} bound violations"
    return violations == 0, detail


def _run_problem(g: Graph, cover: Cover, traces: list) -> str | None:
    """What is wrong with a run, by verify_cover and then validate_run, or
    None when it passes both."""
    report = verify_cover(g, cover)
    if not report.valid:
        return (
            f"cover invalid: {len(report.not_subgraphs)} not subgraphs, "
            f"{len(report.recognition_failures)} unrecognised, "
            f"{len(report.uncovered)} edges uncovered"
        )
    try:
        validate_run(g, cover, traces)
    except InputError as exc:
        return f"run: {exc}"
    return None


def _cover_validity(run: AcceptanceRun) -> tuple[bool, str]:
    bad = sum(_run_problem(*emitted) is not None for emitted in run.emitted)
    elements = sum(len(cover.elements) for _, cover, _ in run.emitted)
    detail = f"{len(run.emitted)} covers / {elements} elements verified, {bad} failures"
    return bad == 0 and bool(run.emitted), detail


def _ordering_subgraphs(run: AcceptanceRun) -> tuple[bool, str]:
    rng = random.Random(606)
    trials = run.count(PROPERTY_TRIALS, 100)
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
    return failures == 0, f"{trials} (graph, ordering) pairs, {failures} failures"


def _big_ants(run: AcceptanceRun) -> tuple[bool, str]:
    rng = random.Random(707)
    trials = run.count(PROPERTY_TRIALS, 100)
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
    return failures == 0, f"{trials} random big ants, {failures} failures"


def _additivity(run: AcceptanceRun) -> tuple[bool, str]:
    rng = random.Random(808)
    trials = run.count(PAIR_COUNT, 40)
    failures = 0
    for i in range(trials):
        g1 = random_block_graph(rng.randint(1, 40), seed=8000 + 2 * i)
        g2 = random_block_graph(rng.randint(1, 40), seed=8001 + 2 * i)
        union = disjoint_union(g1, g2)
        if coboxicity(union) != coboxicity(g1) + coboxicity(g2):
            failures += 1
    return failures == 0, f"{trials} disjoint-union pairs, {failures} additivity failures"


def _box_models(run: AcceptanceRun) -> tuple[bool, str]:
    failures = 0
    for g, cover in run.small_pairs:
        if not cover_to_box_representation(g, cover).satisfies(g):
            failures += 1
    detail = f"{len(run.small_pairs)} box models checked pairwise, {failures} failures"
    return failures == 0 and bool(run.small_pairs), detail


def _large_instance(run: AcceptanceRun) -> tuple[bool, str]:
    n = 20_000 if run.fast else HUGE_VERTICES
    g = random_block_graph(n, seed=424242)
    parts, problems = [], []
    for kind, name in ((COINTERVAL, "co-interval"), (THRESHOLD, "threshold")):
        start = time.perf_counter()
        cover, traces = min_cover(g, kind, trace_components=False)
        took = time.perf_counter() - start
        parts.append(f"{name} {took:.1f}s ({len(cover.elements)} elements)")
        if took >= 60:
            problems.append(f"{name} cover took {took:.1f}s")
        problem = _run_problem(g, cover, traces)
        if problem is not None:
            problems.append(f"{name} {problem}")
    return not problems, "; ".join([f"n={n}: " + ", ".join(parts)] + problems)


# (number, slug, time limit in seconds or None, check), in the order run_all
# runs them: criteria 5 and 9 check the covers that the criteria before
# them emitted.
CRITERIA: tuple[tuple[int, str, float | None, Check], ...] = (
    (1, "path-formula", 1.0, _path_formula),
    (2, "oracle-coboxicity", 300.0, partial(_oracle, COINTERVAL, brute_coboxicity)),
    (3, "oracle-threshold", 300.0, partial(_oracle, THRESHOLD, brute_cothdim)),
    (4, "threshold-vs-cobox-bounds", None, _bounds),
    (5, "cover-validity", None, _cover_validity),
    (6, "ordering-subgraphs-cointerval", None, _ordering_subgraphs),
    (7, "big-ant-recognition", None, _big_ants),
    (8, "component-additivity", None, _additivity),
    (9, "box-representation", None, _box_models),
    (10, "large-instance-runtime", None, _large_instance),
)


def run_all(fast: bool = False) -> list[CriterionResult]:
    run = AcceptanceRun(fast=fast)
    return [run.result(*row) for row in CRITERIA]
