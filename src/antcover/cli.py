"""Command-line surface: compute, verify, generate, export, acceptance harness.

Exit codes:
  0  success
  1  failed verification, of a cover or of the run its file records, or
     failed acceptance check
  2  unreadable or malformed input, including a cover element without a
     block, malformed traces in a cover file, a graph above the --oracle
     bound and --input and --cover both on stdin (or, for harness,
     networkx missing)
  2  an output file or stdout that cannot be written (disk full, closed
     pipe)
  2  out of memory
  3  non-block-graph input to a block-graph command
  4  internal invariant violation
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from .cointerval import COINTERVAL, THRESHOLD
from .cover import (
    Cover,
    _gc_paused,
    box_to_dict,
    coboxicity,
    cothdim,
    cover_from_dict,
    cover_to_box_representation,
    cover_to_dict,
    min_cover,
    traces_from_dict,
    validate_run,
    verify_cover,
)
from .errors import InputError, InternalInvariantError, NotBlockGraphError
from .graph import (
    Graph,
    parse_edgelist,
    parse_structured,
    serialize_edgelist,
    serialize_structured,
)

PALETTE = (
    "red", "blue", "forestgreen", "darkorange", "purple",
    "saddlebrown", "deeppink", "teal", "olive", "navy",
)


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout, which is flushed at
    once so that a failed write is reported by the command that made it."""
    to_stdout = path in (None, "-")
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {'stdout' if to_stdout else path}: {exc}") from None


def _write_json(path: str | None, payload: dict) -> None:
    """Write payload as compact JSON; indented, each id would take a line."""
    _write_text(path, json.dumps(payload, separators=(",", ":")) + "\n")


def _print(line: object) -> None:
    _write_text(None, f"{line}\n")


def _load_graph(args: argparse.Namespace) -> Graph:
    text = _read_text(args.input)
    if args.format == "structured":
        return parse_structured(text)
    return parse_edgelist(text)


def _load_graph_and_cover_json(args: argparse.Namespace) -> tuple[Graph, object]:
    """The graph, and the parsed JSON of the cover file that --cover names
    (None without --cover). stdin can be read once only, so both on it fail
    before either is read."""
    path = args.cover_path
    if path == "-" and args.input in (None, "-"):
        raise InputError("only one of --input and --cover can be -, and --input is - when omitted")
    g = _load_graph(args)
    if not path:
        return g, None
    text = _read_text(path)  # outside the try: InputError is a ValueError
    # JSONDecodeError is a ValueError, and so is an integer of more than
    # 4,300 digits; deep nesting raises RecursionError
    try:
        return g, json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed cover JSON: {exc}") from None


def export_dot(g: Graph, c: Cover | None = None) -> str:
    """DOT text for the graph (cover elements as colored edge groups)
    followed by its block-cut tree."""
    from .blocks import block_cut_tree_dot, block_decomposition

    color: dict[tuple[int, int], str] = {}
    if c is not None:
        for i, el in enumerate(c.elements):
            for e in sorted(el.edges):
                color.setdefault(e, PALETTE[i % len(PALETTE)])
    lines = ["graph G {"]
    for v in sorted(g.vertices):
        lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        paint = color.get((u, v))
        suffix = f' [color="{paint}"]' if paint else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n" + block_cut_tree_dot(block_decomposition(g))


def _cmd_value(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    value = (cothdim if args.kind == THRESHOLD else coboxicity)(g)
    if args.oracle:
        from .oracle import brute_coboxicity, brute_cothdim

        brute = brute_cothdim(g) if args.kind == THRESHOLD else brute_coboxicity(g)
        agree = "agree" if brute == value else "DISAGREE"
        print(f"oracle {brute} ({agree})", file=sys.stderr)
        if brute != value:
            raise InternalInvariantError("algorithm disagrees with the exact oracle")
    _print(value)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    cover, traces = min_cover(g, args.kind)
    _write_json(args.output, cover_to_dict(cover, traces))
    if args.dot_path:
        _write_text(args.dot_path, export_dot(g, cover))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Check the cover; when its file records the run, replay that too."""
    g, payload = _load_graph_and_cover_json(args)
    cover = cover_from_dict(g, payload)
    traces = traces_from_dict(payload) if "traces" in payload else None
    report = verify_cover(g, cover)
    if report.valid and traces is not None:
        try:
            validate_run(g, cover, traces)
        except InputError as exc:
            _print("invalid")
            _print(f"  run: {exc}")
            return 1
    if report.valid:
        _print("valid")
        return 0
    _print("invalid")
    if report.not_subgraphs:
        _print(f"  elements not subgraphs: {list(report.not_subgraphs)}")
    if report.recognition_failures:
        _print(f"  elements failing {cover.kind} recognition: {list(report.recognition_failures)}")
    if report.uncovered:
        _print(f"  uncovered edges: {sorted(report.uncovered)}")
    return 1


def _cmd_boxrep(args: argparse.Namespace) -> int:
    g, payload = _load_graph_and_cover_json(args)
    if args.cover_path:
        cover = cover_from_dict(g, payload)
    else:
        cover, _ = min_cover(g, COINTERVAL, trace_components=False)
    rep = cover_to_box_representation(g, cover)
    _write_json(args.output, box_to_dict(rep))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generate import random_block_graph

    g = random_block_graph(args.n, args.seed, args.edge_block_prob, args.max_block)
    text = serialize_structured(g) if args.format == "structured" else serialize_edgelist(g)
    _write_text(args.output, text)
    return 0


def _cmd_harness(args: argparse.Namespace) -> int:
    try:
        import networkx  # noqa: F401  (criterion 2 draws its free trees from it)
    except ImportError:
        print(
            "error: the acceptance harness needs networkx, which the test extra "
            "installs: pip install 'antcover[test]'",
            file=sys.stderr,
        )
        return 2
    from .acceptance import run_all

    results = run_all(fast=args.quick)
    for res in results:
        _print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antcover",
        description="Co-boxicity and threshold co-dimension of block graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", "-i", default=None, help="graph file ('-' for stdin)")
        p.add_argument("--format", "-f", choices=["edgelist", "structured"], default="edgelist")

    for name, kind in (("coboxicity", COINTERVAL), ("cothdim", THRESHOLD)):
        p = sub.add_parser(name, help=f"print the {name} of a block graph")
        p.set_defaults(handler=_cmd_value, kind=kind)
        add_input(p)
        p.add_argument("--oracle", action="store_true", help="cross-check against the exact oracle")

    p = sub.add_parser("cover", help="emit a minimum cover with iteration traces")
    p.set_defaults(handler=_cmd_cover)
    add_input(p)
    p.add_argument("--kind", choices=[COINTERVAL, THRESHOLD], default=COINTERVAL)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--dot", dest="dot_path", default=None, help="also write a DOT rendering")

    p = sub.add_parser("verify", help="verify a cover against a graph")
    p.set_defaults(handler=_cmd_verify)
    add_input(p)
    p.add_argument("--cover", dest="cover_path", required=True, help="cover JSON file")

    p = sub.add_parser("boxrep", help="emit a box intersection model of the complement")
    p.set_defaults(handler=_cmd_boxrep)
    add_input(p)
    p.add_argument("--cover", dest="cover_path", default=None, help="use this cover instead of computing one")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("gen", help="generate a seeded random block graph")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--edge-block-prob", type=float, default=0.6)
    p.add_argument("--max-block", type=int, default=5)
    p.add_argument("--format", "-f", choices=["edgelist", "structured"], default="edgelist")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("harness", help="run the acceptance suite")
    p.set_defaults(handler=_cmd_harness)
    p.add_argument("--quick", action="store_true", help="reduced sizes for a smoke run")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    printed = io.StringIO()
    try:
        with redirect_stdout(printed):
            args = _build_parser().parse_args(argv)
    except SystemExit:
        # argparse prints --help and exits inside parse_args, and it ignores
        # a failed write; the text is written here instead, so that a failed
        # write is reported like any other
        if printed.getvalue():
            try:
                _write_text(None, printed.getvalue())
            except InputError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        raise
    try:
        # commands build long-lived containers that make no cycles, so a
        # collection would scan live state and free nothing
        with _gc_paused():
            return args.handler(args)
    except NotBlockGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        pass
    # reported once the handler has ended, which frees the failed
    # command's frames and everything they held
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
