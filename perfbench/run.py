"""Layered benchmark for antcover.

    python3 perfbench/run.py --workload solve-sparse --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Workloads (see BENCHMARK.json for why each exists):
  solve-sparse   parse_edgelist -> coboxicity -> cothdim on small-block families
  solve-dense    the same calls on large-block graphs
  cli-roundtrip  `python -m antcover.cli` commands, one capped child at a time

A run builds its inputs from --seed in a set-up child, then repeats rounds
of the workload's operations until --seconds is spent, checking every
output outside the timed region. setup_s is the median of SETUP_REPEATS
timed set-ups; the repeats after the first are spread between the rounds,
so that they sample the machine's load over the same span of time as the
rounds do. wall_s, cpu_s and setup_s are scaled to the machine's speed
during the run (see speed.py); the raw values are in the meta line. With
--trace 0 a run prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it drives the same inputs layer by layer
with spans and counts, prints the per-layer metrics and writes the spans
to .perfbench_runs/. The last line of stdout is always one JSON object.
See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

from inputs import WORKLOADS
from speed import MachineSpeed
from tracing import GcTimer, MemoryPeaks, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 9
# A child reference costs about as much as a CLI command; sampling it after
# every fourth command leaves most of a run to the commands.
CHILD_SAMPLE_EVERY = 4
PEAK_CHILDREN = 3
SETUP_TIMEOUT_S = 120
# No new operation starts after this many seconds of a run, so that even a
# badly regressed program ends well inside the 180 s a run may take.
RUN_BUDGET_S = 110
LAYERS = ("graph", "blocks", "peel", "cover", "cointerval", "cli")
CLI_COMMANDS = ("coboxicity", "cothdim", "cover", "verify", "boxrep")
PEEL_CASES = ("1", "2", "3a", "3b", "3*-2cuts", "3*-many")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Import antcover from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import antcover
    except ImportError as exc:
        sys.exit(f"error: cannot import antcover from {src}: {exc}")
    if not Path(antcover.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: antcover was imported from {antcover.__file__}, not from {src}")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:12]


class SetUp:
    """Timed set-ups of one workload's inputs, each in a child process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.times: list[float] = []
        self.digests: set[str] = set()

    def run(self, out: Path) -> None:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--out", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        self.times.append(time.perf_counter() - t0)
        self.digests.add(done.stdout.strip())

    def repeat(self, out: Path) -> None:
        """One more set-up into `out`, unless SETUP_REPEATS have been timed."""
        if len(self.times) < SETUP_REPEATS:
            self.run(out)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAIL {what}: {reason}", file=sys.stderr)


def describe(exc: Exception) -> str:
    """One line naming an exception and where it was raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def run_op(op):
    """Run one operation; return (wall s, cpu s incl. children, child rss MB, failure).

    A CLI operation's result carries its child's cpu_s and rss_mb.
    """
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return 0.0, 0.0, 0.0, describe(exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    cpu += getattr(result, "cpu_s", 0.0)
    rss = getattr(result, "rss_mb", 0.0)
    try:
        failure = op.check(result)
    except Exception as exc:
        failure = describe(exc)
    return wall, cpu, rss, failure


def timed_run(wl, seconds: float, started: float, tally: Tally, speed: MachineSpeed,
              between: Callable[[], None]) -> tuple[dict, int]:
    """An untimed warm-up round, then rounds of the workload's operations
    until `seconds` is spent, calling `between` after all but the last and
    sampling the machine's speed after every operation, or after every
    CHILD_SAMPLE_EVERY-th with the reference in a child process for a
    workload that runs children.

    The warm-up lets the allocator, the import caches and the output-check
    caches fill. A new round starts only if it is expected to end in time.
    wall_s and cpu_s sum each operation's fastest time over the rounds: the
    host's load can slow an operation but never speed it, so the minimum is
    the estimate that load disturbs least. Both are raw
    seconds here; the caller scales them by the machine's speed.
    peak_rss_mb is the largest CLI child's; the in-process workloads leave
    it to peak_rss_of_rounds.
    """
    ops = wl.ops()
    kind = "child" if wl.runs_children else "process"
    every = CHILD_SAMPLE_EVERY if wl.runs_children else 1
    walls = {op.name: [] for op in ops}
    cpus = {op.name: [] for op in ops}
    child_rss = 0.0
    rounds = -1
    while True:
        op_time = 0.0
        for i, op in enumerate(ops):
            if time.perf_counter() - started > RUN_BUDGET_S:
                tally.record(op.name, f"run budget of {RUN_BUDGET_S}s spent")
                continue
            wall, cpu, rss, failure = run_op(op)
            if i % every == 0:
                speed.sample(kind)
            op_time += wall
            tally.record(op.name, failure)
            if failure is None and rounds >= 0:
                walls[op.name].append(wall)
                cpus[op.name].append(cpu)
            if failure is None:
                child_rss = max(child_rss, rss)
        rounds += 1
        if rounds == 0:
            t_start = time.perf_counter()
        elif (time.perf_counter() - t_start + op_time > seconds
              or time.perf_counter() - started > RUN_BUDGET_S):
            break
        between()

    def min_sum(samples: dict[str, list[float]]) -> float:
        return sum(min(xs) for xs in samples.values() if xs)

    return {
        "wall_s": min_sum(walls),
        "cpu_s": min_sum(cpus),
        **({"peak_rss_mb": child_rss} if wl.runs_children else {}),
    }, rounds


def peak_rss_of_rounds(args, work: Path, tally: Tally) -> float:
    """Median peak RSS of PEAK_CHILDREN fresh processes that each run one
    round of an in-process workload's operations on the inputs in `work`.

    A process's peak cannot be reset, and from one process to the next the
    allocator may keep a few MB more or less mapped at the peak, so the
    peak is taken from fresh processes and the median of several reported.
    """
    peaks = []
    for _ in range(PEAK_CHILDREN):
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--peak-of", str(work)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.record("peak RSS round", f"killed after the {SETUP_TIMEOUT_S}s timeout")
            continue
        failure = None if done.returncode == 0 else (done.stderr.strip().splitlines() or ["?"])[-1]
        tally.record("peak RSS round", failure)
        if failure is None:
            peaks.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(peaks) if peaks else 0.0


def peak_round(args) -> int:
    """One round of the workload's operations on the inputs in
    args.peak_of; print this process's peak RSS in MB, or fail."""
    import_program()
    from workloads import make_workload

    work = Path(args.peak_of)
    wl = make_workload(args.workload, work, json.loads((work / "manifest.json").read_text()), args.seed)
    for op in wl.ops():
        failure = run_op(op)[3]
        if failure is not None:
            sys.exit(f"{op.name}: {failure}")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def traced_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """A warm-up pass, pairs of an untraced and a traced layer pass until
    `seconds` is spent, then one pass under tracemalloc for the peaks."""

    def passed(checks, what):
        for check in checks:
            try:
                failure = check()
            except Exception as exc:
                failure = describe(exc)
            tally.record(what, failure)

    passed(wl.layer_pass(NullTracer()), "warm-up pass")
    untraced, passes = [], []
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        gc.collect()
        t0 = time.perf_counter()
        checks = wl.layer_pass(NullTracer())
        untraced.append(time.perf_counter() - t0)
        passed(checks, "untraced pass")
        gc.collect()
        tr = Tracer()
        with GcTimer() as gct:
            t0 = time.perf_counter()
            checks = wl.layer_pass(tr)
            wall = time.perf_counter() - t0
        passes.append((tr, wall, gct))
        passed(checks, "traced pass")
        now = time.perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    gc.collect()
    mem = MemoryPeaks()
    passed(wl.layer_pass(NullTracer(), mem, with_cli=False), "tracemalloc pass")
    metrics = layer_metrics(passes, untraced, mem)
    trace = {
        "untraced_walls": untraced,
        "passes": [dict(tr.to_json(), wall=w, gc_s=g.seconds, gc_collections=g.collections)
                   for tr, w, g in passes],
        "memory_peaks_mb": dict(mem.peak),
        "memory_kept_mb": dict(mem.kept),
    }
    return metrics, trace


def layer_metrics(passes, untraced, mem) -> dict:
    from workloads import case_metric, scaling_exponent

    def med(f):
        return statistics.median(f(*p) for p in passes)

    def span_s(name):
        return med(lambda tr, w, g: tr.total(name))

    def share(layer):
        return med(lambda tr, w, g: tr.layer_self_times().get(layer, 0.0) / w)

    last = passes[-1][0]
    counts, maxima = last.counts, last.maxima
    startups = [e - s for n, s, e, _ in last.spans if n == "cli.startup"]
    m = {
        "graph.parse_s": span_s("graph.parse_edgelist"),
        "graph.parse_mb": mem.kept["graph.parse"],
        "graph.parse_peak_mb": mem.peak["graph.parse"],
        "blocks.decompose_s": span_s("blocks.block_decomposition"),
        "blocks.check_s": span_s("blocks.is_block_graph"),
        "blocks.count": counts["blocks.count"],
        "peel.cointerval_s": span_s("peel.peel_cover.cointerval"),
        "peel.threshold_s": span_s("peel.peel_cover.threshold"),
        "peel.iterations": counts["peel.iterations"],
        "peel.peak_mb": mem.peak["peel"],
        **{case_metric(c): counts[case_metric(c)] for c in PEEL_CASES},
        "peel.scaling_exp": med(lambda tr, w, g: scaling_exponent(tr)),
        "peel.element_edges": counts["peel.element_edges"],
        "peel.element_edge_ratio": counts["peel.element_edges"] / counts["peel.host_edges"]
        if counts["peel.host_edges"] else 0.0,
        "runtime.gc_s": med(lambda tr, w, g: g.seconds),
        "runtime.gc_collections": med(lambda tr, w, g: g.collections),
        "cover.cover_s": span_s("cover.min_cover"),
        "cover.trace_ids": counts["cover.trace_ids"],
        "cover.json_mb": counts["cover.json_mb"],
        "cover.to_dict_s": span_s("cover.to_dict"),
        "cover.from_dict_s": span_s("cover.from_dict"),
        "cover.verify_s": span_s("cover.verify_cover"),
        "cover.verify_peak_mb": mem.peak["cover.verify"],
        "cover.validate_run_s": span_s("cover.validate_run"),
        "cointerval.recognise_s": span_s("cointerval.recognise"),
        "cointerval.recognise_calls": counts["cointerval.recognise_calls"],
        "cointerval.complement_pairs": counts["cointerval.complement_pairs"],
        "cover.box_s": span_s("cover.box"),
        "cover.box_cells": counts["cover.box_cells"],
        "cover.box_peak_mb": mem.peak["cover.box"],
        "cover.box_json_mb": counts["cover.box_json_mb"],
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        **{f"cli.{c}_s": span_s(f"cli.{c}") for c in CLI_COMMANDS},
        **{f"cli.{c}_rss_mb": maxima[f"cli.{c}_rss_mb"] for c in CLI_COMMANDS},
        "cli.out_mb": counts["cli.out_mb"],
        "trace.wall_s": med(lambda tr, w, g: w),
        "trace.overhead_s": med(lambda tr, w, g: w) - statistics.median(untraced),
        **{f"share.{layer}": share(layer) for layer in LAYERS},
    }
    return m


def emit(metrics: dict, declared: list[dict]) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def run_workload(args) -> int:
    started = time.perf_counter()
    import_program()
    bench = spec()
    work = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = Tally()
    try:
        setup = SetUp(args.workload, args.seed)
        setup.run(work)
        from workloads import make_workload

        wl = make_workload(args.workload, work, json.loads((work / "manifest.json").read_text()), args.seed)
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
            "program_sha": digest(list((ROOT / "src" / "antcover").glob("*.py"))),
            "bench_sha": digest(list(HERE.glob("*.py"))),
            "setup_repeats": SETUP_REPEATS,
        }
        if args.trace:
            metrics, trace = traced_run(wl, args.seconds, tally)
            meta["passes"] = len(trace["passes"])
            declared = bench["per_layer"]
            out = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({"meta": meta, "metrics": metrics, **trace}))
            print(f"spans written to {out.relative_to(ROOT)}")
        else:
            again = work / "setup-repeat"
            speed = MachineSpeed()

            def between() -> None:
                setup.repeat(again)
                speed.sample("child")

            metrics, meta["rounds"] = timed_run(wl, args.seconds, started, tally, speed, between)
            for _ in range(SETUP_REPEATS):
                setup.repeat(again)
            if "peak_rss_mb" not in metrics:
                metrics["peak_rss_mb"] = peak_rss_of_rounds(args, work, tally)
            tally.record("set-up determinism",
                         None if len(setup.digests) == 1 else "set-ups wrote different inputs")
            metrics["setup_s"] = statistics.median(setup.times)
            meta["raw_s"] = {k: metrics[k] for k in ("wall_s", "cpu_s", "setup_s")}
            meta["reference_s"], meta["reference_samples"] = speed.fastest, speed.samples
            # Set-ups run in children; so do the operations of a workload
            # that runs children.
            kind = "child" if wl.runs_children else "process"
            meta["speed_scale"] = {"wall_s": speed.scale(kind), "cpu_s": speed.scale(kind),
                                   "setup_s": speed.scale("child")}
            for k, scale in meta["speed_scale"].items():
                metrics[k] *= scale
            metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("meta " + json.dumps(meta))
    for d in declared:
        print(f"  {d['name']:<30} {metrics[d['name']]:>14.6g} {d['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": emit(metrics, declared),
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table, one JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = v
            print(f"{name:<14} {metric:<30} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for antcover.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-of", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.peak_of:
        return peak_round(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
