"""The three workloads: their timed operations, their traced layer passes
and the checks on every output.

A workload offers
  ops()                         operations of one timed round, in order;
  layer_pass(tr, mem, with_cli) the same inputs driven layer by layer, with
                                a span around every call into the program
                                and counts taken from the returned objects;
                                it returns its checks unevaluated, so that
                                the caller runs them outside the timing.
A check returns None when an output is right and a reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from antcover import (
    Graph,
    IterationTrace,
    block_decomposition,
    coboxicity,
    cothdim,
    cover_from_dict,
    cover_to_box_representation,
    cover_to_dict,
    is_block_graph,
    is_cointerval,
    is_threshold,
    min_cointerval_cover,
    min_threshold_cover,
    parse_edgelist,
    path_coboxicity,
    validate_run,
    verify_cover,
)
from antcover.cover import box_to_dict
from antcover.peel import COINTERVAL, THRESHOLD, peel_cover

import golden
from inputs import CLI_CATERPILLAR_N, CLI_COVER_N, CLI_RANDOM_N, RANDOM_LARGE, RANDOM_SMALL, ROOT
from tracing import MB, NO_MEMORY

KINDS = (COINTERVAL, THRESHOLD)

# Caps on every CLI child, so that a pathological case (trace snapshots,
# star verify, dense boxrep) is a counted failure instead of an OOM on a
# shared box. The address-space cap is set in the child only.
CLI_AS_CAP_BYTES = 2 * 1024**3
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Expect:
    """What one input must give: its shape and, where recorded, its values."""

    n: int
    m: int
    values: tuple[int, int] | None  # (coboxicity, cothdim)


@dataclass
class CliResult:
    returncode: int | None  # None when the child was killed at its timeout
    stdout: str
    stderr: str
    cpu_s: float
    rss_mb: float
    out_bytes: int


def check_values(name: str, n: int, m: int, cobox: int, cothd: int, expect: Expect) -> str | None:
    """Checks on the shape, co-boxicity and threshold co-dimension of one input."""
    if (n, m) != (expect.n, expect.m):
        return f"{name}: parsed n, m = {n}, {m}, expected {expect.n}, {expect.m}"
    if not 1 <= cobox <= cothd <= 2 * cobox:
        return f"{name}: violates 1 <= cobox <= cothdim <= 2*cobox ({cobox}, {cothd})"
    if name.startswith("path-") and cobox != path_coboxicity(n):
        return f"{name}: coboxicity {cobox} != path_coboxicity {path_coboxicity(n)}"
    if expect.values is not None and (cobox, cothd) != expect.values:
        return f"{name}: values {(cobox, cothd)} != golden {expect.values}"
    return None


def guarded(name: str, body: Callable[[], list[Callable]]) -> list[Callable]:
    """Run one input's part of a layer pass; an exception from the program
    becomes a failed check instead of ending the pass."""
    try:
        return body()
    except Exception as exc:
        return [lambda: f"{name}: {type(exc).__name__}: {exc}"]


def case_metric(case: str) -> str:
    return "peel.case." + case.replace("*", "star")


class SolveWorkload:
    """parse_edgelist -> coboxicity -> cothdim on each input, in process."""

    runs_children = False

    def __init__(self, work: Path, files: dict[str, str], expects: dict[str, Expect]):
        self.texts = {name: (work / f).read_text() for name, f in files.items()}
        self.expects = expects

    def ops(self) -> list[Op]:
        return [
            Op(f"solve {name}", lambda text=text: self.solve(text),
               lambda v, name=name: check_values(name, *v, self.expects[name]))
            for name, text in self.texts.items()
        ]

    @staticmethod
    def solve(text: str) -> tuple[int, int, int, int]:
        g = parse_edgelist(text)
        return g.vertex_count, g.edge_count, coboxicity(g), cothdim(g)

    def layer_pass(self, tr, mem=NO_MEMORY, with_cli: bool = True) -> list[Callable]:
        """One pass over all inputs, layer by layer; one check per input."""
        checks = []
        for name, text in self.texts.items():
            with tr.span(f"input.{name}"):
                checks += guarded(name, lambda: self._input_pass(name, text, tr, mem))
        return checks

    def _input_pass(self, name: str, text: str, tr, mem) -> list[Callable]:
        with tr.span("graph.parse_edgelist"), mem.measure("graph.parse"):
            g = parse_edgelist(text)
        with tr.span("blocks.block_decomposition"):
            bd = block_decomposition(g)
        with tr.span("blocks.is_block_graph"):
            ok = is_block_graph(g)
        tr.count("blocks.count", len(bd.blocks))
        sizes = []
        for kind in KINDS:
            with tr.span(f"peel.peel_cover.{kind}"), mem.measure("peel"):
                elements, traces = peel_cover(g, bd, kind, False)
            sizes.append(len(elements))
            tr.count("peel.iterations", len(traces))
            for t in traces:
                tr.count(case_metric(t.case_taken))
            tr.count("peel.element_edges", sum(len(el.edges) for el in elements))
            tr.count("peel.host_edges", g.edge_count)
        nm = (g.vertex_count, g.edge_count)
        return [lambda: (None if ok else f"{name}: is_block_graph returned False")
                or check_values(name, *nm, *sizes, self.expects[name])]


def scaling_exponent(tr) -> float:
    """log(t_large / t_small) / log(n_large / n_small) of the peel time on
    the two random solve-sparse inputs; 0 when the pass has no such pair."""
    sizes = {f"input.random-{RANDOM_SMALL}": RANDOM_SMALL, f"input.random-{RANDOM_LARGE}": RANDOM_LARGE}
    peel_time = dict.fromkeys(sizes.values(), 0.0)
    for name, start, end, parent in tr.spans:
        if name.startswith("peel.") and tr.spans[parent][0] in sizes:
            peel_time[sizes[tr.spans[parent][0]]] += end - start
    small, large = peel_time[RANDOM_SMALL], peel_time[RANDOM_LARGE]
    if small <= 0 or large <= 0:
        return 0.0
    return math.log(large / small) / math.log(RANDOM_LARGE / RANDOM_SMALL)


def _cap_child() -> None:
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
    resource.setrlimit(resource.RLIMIT_AS, (CLI_AS_CAP_BYTES, CLI_AS_CAP_BYTES))


def run_cli(args: list[str], cwd: Path, outputs: tuple[Path, ...] = ()) -> CliResult:
    """Run `python -m antcover.cli ARGS` under the caps and collect its rusage.

    The parent sleeps in sigtimedwait until SIGCHLD or the timeout, so it
    neither polls (which would add to cpu_s) nor oversleeps (wall_s).
    """
    for p in outputs:
        p.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(cwd / "cli.stdout", "w+b") as out, open(cwd / "cli.stderr", "w+b") as err:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
        proc = subprocess.Popen(
            [sys.executable, "-m", "antcover.cli", *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            preexec_fn=_cap_child,
        )
        deadline = time.perf_counter() + CLI_TIMEOUT_S
        killed = False
        try:
            while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    done = os.wait4(proc.pid, 0)
                    killed = True
                    break
                signal.sigtimedwait({signal.SIGCHLD}, remaining)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
        _, status, usage = done
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return CliResult(
        None if killed else proc.returncode,
        stdout.decode(errors="replace"),
        stderr.decode(errors="replace"),
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        len(stdout) + sum(p.stat().st_size for p in outputs if p.exists()),
    )


def cli_failure(res: CliResult, expect_rc: int = 0) -> str | None:
    if res.returncode is None:
        return f"killed after the {CLI_TIMEOUT_S:.0f}s timeout"
    if res.returncode != expect_rc:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {res.returncode}, expected {expect_rc}: {tail[0]}"
    return None


def parse_traces(entries: list[dict]) -> list[IterationTrace]:
    def opt(xs):
        return None if xs is None else frozenset(xs)

    return [
        IterationTrace(opt(t["component"]), t["case"], opt(t["block"]), t["protected"],
                       tuple(t["apexes"]), frozenset(t["removed"]), t["element"])
        for t in entries
    ]


class CliWorkload:
    """The CLI end to end, one capped child at a time."""

    runs_children = True

    VALUE_INPUTS = (f"random-{CLI_RANDOM_N}", f"caterpillar-{CLI_CATERPILLAR_N}")
    COVER_INPUTS = (f"random-{CLI_COVER_N}", f"path-{CLI_COVER_N}", f"star-{CLI_COVER_N}")

    def __init__(self, work: Path, files: dict[str, str], expects: dict[str, Expect], tampered: dict):
        self.work = work
        self.files = files
        self.expects = expects
        self.tampered = tampered
        self._graphs: dict[str, Graph] = {}
        self._values: dict[str, tuple[int, int]] = {}
        self._checked: set[tuple] = set()

    # -- reference data for the checks, computed once and never timed --

    def graph(self, name: str) -> Graph:
        if name not in self._graphs:
            self._graphs[name] = parse_edgelist((self.work / self.files[name]).read_text())
        return self._graphs[name]

    def values(self, name: str) -> tuple[int, int]:
        """The library's values for an input, which the CLI must print;
        they must first pass the same checks as in the solve workloads."""
        if name not in self._values:
            g = self.graph(name)
            self._values[name] = (coboxicity(g), cothdim(g))
            bad = check_values(name, g.vertex_count, g.edge_count, *self._values[name], self.expects[name])
            if bad:
                raise ValueError(bad)
        return self._values[name]

    def expected(self, name: str, kind: str) -> int:
        return self.values(name)[KINDS.index(kind)]

    # -- operations ------------------------------------------------------

    def ops(self) -> list[Op]:
        w = self.work
        ops = [
            Op(f"cli {cmd} {name}",
               lambda cmd=cmd, src=self.files[name]: run_cli([cmd, "-i", src], w),
               lambda r, name=name, kind=kind: self.check_value(r, name, kind))
            for name in self.VALUE_INPUTS
            for cmd, kind in (("coboxicity", COINTERVAL), ("cothdim", THRESHOLD))
        ]
        for name in self.COVER_INPUTS:
            src = self.files[name]
            for kind in KINDS:
                cover, box = w / f"{name}.{kind}.json", w / f"{name}.{kind}.box.json"
                ops += [
                    Op(f"cli cover {name} {kind}",
                       lambda src=src, kind=kind, cover=cover: run_cli(
                           ["cover", "-i", src, "--kind", kind, "-o", cover.name], w, (cover,)),
                       lambda r, name=name, kind=kind, cover=cover: self.check_cover(r, name, kind, cover)),
                    Op(f"cli verify {name} {kind}",
                       lambda src=src, cover=cover: run_cli(["verify", "-i", src, "--cover", cover.name], w),
                       lambda r: cli_failure(r) or (None if r.stdout.strip() == "valid" else f"printed {r.stdout[:40]!r}")),
                    Op(f"cli boxrep {name} {kind}",
                       lambda src=src, cover=cover, box=box: run_cli(
                           ["boxrep", "-i", src, "--cover", cover.name, "-o", box.name], w, (box,)),
                       lambda r, name=name, kind=kind, box=box: self.check_box(r, name, kind, box)),
                ]
        ops.append(Op(
            "cli verify tampered",
            lambda: run_cli(["verify", "-i", self.files[self.tampered["graph"]],
                             "--cover", self.tampered["file"]], w),
            lambda r: cli_failure(r, expect_rc=1)
            or (None if r.stdout.startswith("invalid") else f"printed {r.stdout[:40]!r}"),
        ))
        return ops

    @staticmethod
    def command(op: Op) -> str:
        return op.name.split()[1]

    # -- checks ----------------------------------------------------------

    def check_value(self, r: CliResult, name: str, kind: str) -> str | None:
        bad = cli_failure(r)
        if bad:
            return bad
        want = self.expected(name, kind)
        return None if r.stdout.strip() == str(want) else f"printed {r.stdout.strip()!r}, expected {want}"

    def _first_time(self, *key) -> bool:
        """Outputs are deterministic: check each distinct output in full once."""
        if key in self._checked:
            return False
        self._checked.add(key)
        return True

    def check_cover(self, r: CliResult, name: str, kind: str, path: Path) -> str | None:
        bad = cli_failure(r)
        if bad:
            return bad
        data = path.read_bytes()
        if not self._first_time(name, kind, hashlib.sha256(data).digest()):
            return None
        g = self.graph(name)
        payload = json.loads(data)
        if payload["kind"] != kind or payload["size"] != self.expected(name, kind):
            return f"cover of {name}: kind {payload['kind']}, size {payload['size']}"
        cover = cover_from_dict(g, payload)
        if not verify_cover(g, cover).valid:
            return f"cover of {name} ({kind}) fails verify_cover"
        validate_run(g, cover, parse_traces(payload["traces"]))
        return None

    def check_box(self, r: CliResult, name: str, kind: str, path: Path) -> str | None:
        """Every pair of boxes is disjoint exactly when the pair is an edge."""
        import numpy as np  # only here, so the solve workloads' RSS leaves it out

        bad = cli_failure(r)
        if bad:
            return bad
        data = path.read_bytes()
        if not self._first_time(name, kind, "box", hashlib.sha256(data).digest()):
            return None
        g = self.graph(name)
        payload = json.loads(data)
        n, d = g.vertex_count, payload["d"]
        if d != self.expected(name, kind) or sorted(map(int, payload["boxes"])) != list(range(n)):
            return f"box model of {name}: d={d}, {len(payload['boxes'])} boxes"
        arr = np.array([payload["boxes"][str(v)] for v in range(n)], dtype=np.int64)
        lo, hi = arr[:, :, 0], arr[:, :, 1]
        if (lo > hi).any():
            return f"box model of {name}: empty interval"
        for u in range(n):
            disjoint = ((hi[u] < lo) | (hi < lo[u])).any(axis=1)
            disjoint[u] = False
            adjacent = np.zeros(n, dtype=bool)
            adjacent[list(g.neighbors(u))] = True
            if not np.array_equal(disjoint, adjacent):
                v = int(np.flatnonzero(disjoint != adjacent)[0])
                return f"box model of {name}: pair ({u}, {v}) disagrees with adjacency"
        return None

    # -- traced pass -----------------------------------------------------

    def layer_pass(self, tr, mem=NO_MEMORY, with_cli: bool = True) -> list[Callable]:
        checks = []
        if with_cli:
            for _ in range(3):
                with tr.span("cli.startup"):
                    res = run_cli(["--help"], self.work)
                checks.append(lambda res=res: cli_failure(res))
            for op in self.ops():
                checks += guarded(op.name, lambda: self._cli_pass(op, tr))
        for name in self.COVER_INPUTS:
            with tr.span(f"input.{name}"):
                checks += guarded(name, lambda: self._library_pass(name, tr, mem))
        return checks

    def _cli_pass(self, op: Op, tr) -> list[Callable]:
        cmd = self.command(op)
        with tr.span(f"cli.{cmd}"):
            res = op.run()
        tr.high(f"cli.{cmd}_rss_mb", res.rss_mb)
        tr.count("cli.out_mb", res.out_bytes / MB)
        return [lambda: op.check(res)]

    def _library_pass(self, name: str, tr, mem) -> list[Callable]:
        """The library calls behind cover, verify and boxrep on one input."""
        text = (self.work / self.files[name]).read_text()
        with tr.span("graph.parse_edgelist"), mem.measure("graph.parse"):
            g = parse_edgelist(text)
        checks = []
        for kind in KINDS:
            solver = min_cointerval_cover if kind == COINTERVAL else min_threshold_cover
            with tr.span("cover.min_cover"):
                cover, traces = solver(g)
            tr.count("cover.trace_ids", sum(len(t.component) for t in traces))
            with tr.span("cover.to_dict"):
                payload = json.dumps(cover_to_dict(cover, traces), indent=2) + "\n"
            tr.count("cover.json_mb", len(payload) / MB)
            with tr.span("cover.from_dict"):
                back = cover_from_dict(g, json.loads(payload))
            with tr.span("cover.verify_cover"), mem.measure("cover.verify"):
                report = verify_cover(g, back)
            recognised = True
            with tr.span("cointerval.recognise"):
                for el in back.elements:
                    eg = Graph.from_data(el.vertices, el.edges)
                    k = eg.vertex_count
                    tr.count("cointerval.recognise_calls")
                    tr.count("cointerval.complement_pairs", k * (k - 1) // 2 - eg.edge_count)
                    ok = is_threshold(eg) if kind == THRESHOLD else is_cointerval(eg) is not None
                    recognised = recognised and ok
            with tr.span("cover.validate_run"):
                validate_run(g, cover, traces)
            with tr.span("cover.box"), mem.measure("cover.box"):
                rep = cover_to_box_representation(g, back)
            tr.count("cover.box_cells", g.vertex_count * rep.dimension)
            with tr.span("cover.box_json"):
                box_text = json.dumps(box_to_dict(rep), indent=2) + "\n"
            tr.count("cover.box_json_mb", len(box_text) / MB)
            sizes = (len(cover.elements), rep.dimension)
            checks.append(lambda kind=kind, good=report.valid and recognised, sizes=sizes: (
                None if good and sizes == (self.expected(name, kind),) * 2
                else f"library cover of {name} ({kind}): valid={good}, sizes {sizes}"))
        return checks


def make_workload(name: str, work: Path, manifest: dict, seed: int):
    tampered = manifest.pop("tampered", None)
    table = golden.load_random()
    files = {k: info["file"] for k, info in manifest.items()}
    expects = {
        k: Expect(info["n"], info["m"], golden.expected(k, seed, table))
        for k, info in manifest.items()
    }
    if name == "cli-roundtrip":
        return CliWorkload(work, files, expects, tampered)
    return SolveWorkload(work, files, expects)
