"""Command-line behaviour: outputs, round trips, exit codes, DOT export."""

import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import antcover

from antcover import cli, generate, graph, oracle, peel
from antcover.blocks import block_decomposition, is_block_graph
from antcover.cli import export_dot, main
from antcover.cointerval import COINTERVAL, THRESHOLD
from antcover.cover import cover_to_dict, min_cointerval_cover, min_cover
from antcover.graph import build_graph, parse_edgelist, serialize_edgelist
from helpers import complete_graph, cycle_graph, golden_corpus, path_graph


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_edgelist(g))
    return str(path)


def test_coboxicity_command(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(7))
    assert main(["coboxicity", "-i", path]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cothdim_command_with_oracle(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(6))
    assert main(["cothdim", "-i", path, "--oracle"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "3"
    assert "agree" in captured.err


def test_oracle_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    brute = oracle.brute_coboxicity
    monkeypatch.setattr(oracle, "brute_coboxicity", lambda g: brute(g) + 1)
    path = write_graph(tmp_path, path_graph(7))
    assert main(["coboxicity", "-i", path, "--oracle"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle 3 (DISAGREE)\ninternal error: algorithm disagrees with the exact oracle\n"


def test_cover_emit_and_verify_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(7))
    cpath = str(tmp_path / "cover.json")
    assert main(["cover", "-i", gpath, "-o", cpath]) == 0
    text = Path(cpath).read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, separators=(",", ":")) + "\n"  # compact
    assert payload["kind"] == "cointerval" and payload["size"] == 2
    assert len(payload["traces"]) == 2
    # a snapshot is derived from the graph and the removed sets, and all of
    # them together are quadratic in size, so the CLI writes none
    assert all(t["component"] is None for t in payload["traces"])
    assert main(["verify", "-i", gpath, "--cover", cpath]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_verify_detects_missing_edge(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4))
    payload = {
        "kind": "cointerval",
        "size": 1,
        "elements": [
            {
                "block": [1, 2],
                "u": 1,
                "v": 2,
                "vertices": [0, 1, 2],
                "edges": [[0, 1], [1, 2]],
            }
        ],
    }
    cpath = tmp_path / "cover.json"
    cpath.write_text(json.dumps(payload))
    assert main(["verify", "-i", gpath, "--cover", str(cpath)]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "(2, 3)" in out


def test_boxrep_command(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(7))
    assert main(["boxrep", "-i", gpath]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["d"] == 2
    assert set(payload["boxes"]) == {str(v) for v in range(7)}
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"  # compact


def test_boxrep_of_a_blockless_cover_file(tmp_path, capsys):
    g = path_graph(9)
    gpath = write_graph(tmp_path, g)
    cpath = tmp_path / "cover.json"
    assert main(["cover", "-i", gpath, "-o", str(cpath)]) == 0
    payload = json.loads(cpath.read_text())
    for entry in payload["elements"]:
        entry.update(block=None, u=None, v=None)
    cpath.write_text(json.dumps(payload))
    # the solvers only ever write big ants, so an element without a block
    # is malformed input, named by its index
    assert main(["boxrep", "-i", gpath, "--cover", str(cpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed cover payload: cover element 0 has no block\n"


def test_verify_rejects_a_large_blockless_element_at_once(tmp_path, capsys):
    n = 2_001
    star = build_graph(n, [(0, i) for i in range(1, n)])
    gpath = write_graph(tmp_path, star)
    edges = [[0, i] for i in range(1, n)]
    payload = {
        "kind": "cointerval",
        "size": 1,
        "elements": [{"block": None, "u": None, "v": None, "vertices": list(range(n)), "edges": edges}],
    }
    cpath = tmp_path / "cover.json"
    cpath.write_text(json.dumps(payload))
    start = time.perf_counter()
    assert main(["verify", "-i", gpath, "--cover", str(cpath)]) == 2
    # refused as it is read: no recogniser runs
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed cover payload: cover element 0 has no block\n"
    # the same star with its block and apex is certified
    payload["elements"][0].update(block=[0, 1], u=0, v=0)
    cpath.write_text(json.dumps(payload))
    assert main(["verify", "-i", gpath, "--cover", str(cpath)]) == 0
    assert capsys.readouterr().out == "valid\n"


@pytest.mark.parametrize("command", ["verify", "boxrep"])
@pytest.mark.parametrize("graph_from", [["-i", "-"], []])
def test_graph_and_cover_both_on_stdin_fail_before_reading(command, graph_from, monkeypatch, capsys):
    stdin = io.StringIO("2 1\n0 1\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([command, *graph_from, "--cover", "-"]) == 2
    assert stdin.tell() == 0  # nothing was read
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: only one of --input and --cover can be -, and --input is - when omitted\n"


def test_cli_import_loads_only_the_modules_commands_run(tmp_path):
    src = str(Path(antcover.__file__).resolve().parents[1])

    def loaded_after(code):
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, antcover.cli; {code}print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    lazy = {"antcover.oracle", "antcover.generate", "antcover.recognition", "antcover.acceptance"}
    solver = {"antcover.blocks", "antcover.peel"}  # verify and boxrep --cover never solve
    heavy = {"dataclasses", "inspect"}  # about 10 ms of every child's start-up
    loaded = loaded_after("")
    assert "antcover.cli" in loaded
    assert not loaded & (lazy | solver | heavy)

    path = write_graph(tmp_path, path_graph(7))
    out = str(tmp_path / "c.json")
    loaded = loaded_after(
        f"assert antcover.cli.main(['coboxicity', '-i', {path!r}]) == 0; "
        f"assert antcover.cli.main(['cover', '-i', {path!r}, '-o', {out!r}]) == 0; "
    )
    assert solver <= loaded
    assert not loaded & (lazy | heavy)

    # verify and boxrep --cover judge an element by its block and apexes
    # only, so no cover, valid or not, loads the general recogniser
    payload = json.loads(Path(out).read_text())
    tampered = json.loads(json.dumps(payload))
    for entry in tampered["elements"]:
        entry["edges"] = entry["edges"][1:]
        entry["u"] = entry["v"] = entry["block"][-1]
    blockless = json.loads(json.dumps(payload))
    for entry in blockless["elements"]:
        entry["block"] = None
    calls = ""
    # (name, cover, verify's status, boxrep's status); a blockless element is malformed
    runs = (("valid", payload, 0, 0), ("tampered", tampered, 1, 2), ("blockless", blockless, 2, 2))
    for name, cover, verified, boxed in runs:
        cpath = tmp_path / f"{name}.json"
        cpath.write_text(json.dumps(cover))
        calls += (
            f"assert antcover.cli.main(['verify', '-i', {path!r}, '--cover', {str(cpath)!r}]) == {verified}; "
            f"assert antcover.cli.main(['boxrep', '-i', {path!r}, '--cover', {str(cpath)!r}, "
            f"'-o', {str(tmp_path / 'b.json')!r}]) == {boxed}; "
        )
    loaded = loaded_after(calls)
    assert not loaded & (lazy | solver | heavy)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from antcover import *", namespace)
    assert set(antcover.__all__) <= namespace.keys()
    assert set(antcover.__all__) <= set(dir(antcover))
    assert namespace["verify_cover"] is antcover.cover.verify_cover
    with pytest.raises(AttributeError):
        antcover.no_such_name


def test_gen_is_byte_deterministic_and_block(tmp_path, capsys):
    assert main(["gen", "--seed", "7", "--n", "50"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7", "--n", "50"]) == 0
    second = capsys.readouterr().out
    assert first == second
    g = parse_edgelist(first)
    assert g.vertex_count == 50 and is_block_graph(g)


def test_help_goes_to_stdout(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cover", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: antcover cover")


@pytest.mark.parametrize("option", ["--cover", "-o"])
def test_value_commands_write_no_cover(tmp_path, capsys, option):
    # antcover cover --kind writes covers; the value commands only print
    gpath = write_graph(tmp_path, path_graph(4))
    for command in ("coboxicity", "cothdim"):
        with pytest.raises(SystemExit) as info:
            main([command, "-i", gpath, option, str(tmp_path / "c.json")])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: antcover ")
        assert f"error: unrecognized arguments: {option} " in captured.err
        assert not captured.out
    assert not (tmp_path / "c.json").exists()


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--n", "10"])


def test_gen_max_block_two_makes_every_block_an_edge(capsys):
    for seed, n in ((1, 10), (2, 2), (3, 57)):
        assert main(["gen", "--seed", str(seed), "--n", str(n), "--max-block", "2"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert g.vertex_count == n and g.edge_count == n - 1
        assert all(len(b) == 2 for b in block_decomposition(g).blocks)


def test_no_command_runs_the_component_walk(tmp_path, capsys, monkeypatch):
    walks = []
    original = peel._component_walk

    def recording(g, removed_sets):
        walks.append(len(removed_sets))
        return original(g, removed_sets)

    monkeypatch.setattr(peel, "_component_walk", recording)
    monkeypatch.setattr("antcover.cover._component_walk", recording)
    gpath = write_graph(tmp_path, path_graph(7))
    cpath = str(tmp_path / "c.json")
    assert main(["cover", "-i", gpath, "-o", cpath]) == 0
    assert main(["boxrep", "-i", gpath]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 2
    assert main(["verify", "-i", gpath, "--cover", cpath]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert walks == []


@pytest.mark.parametrize("kind", [COINTERVAL, THRESHOLD])
def test_cover_file_is_the_snapshot_free_library_payload(tmp_path, capsys, kind):
    for name, g in golden_corpus().items():
        gpath = write_graph(tmp_path, g)
        cpath = tmp_path / "c.json"
        assert main(["cover", "-i", gpath, "--kind", kind, "-o", str(cpath)]) == 0
        payload = cover_to_dict(*min_cover(g, kind, trace_components=False))
        assert cpath.read_text() == json.dumps(payload, separators=(",", ":")) + "\n", name


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_with_gc_off_and_leaves_it_as_it_found_it(tmp_path, capsys, monkeypatch, enabled):
    seen = []

    def count(g):
        seen.append(gc.isenabled())
        return 2

    monkeypatch.setattr(cli, "coboxicity", count)
    gpath = write_graph(tmp_path, path_graph(7))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["coboxicity", "-i", gpath]) == 0
        assert gc.isenabled() is enabled
        assert main(["coboxicity", "-i", str(tmp_path / "missing.txt")]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_exit_code_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    assert main(["coboxicity", "-i", str(path)]) == 2


def test_exit_code_undecodable_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00 3 2\n")
    assert main(["coboxicity", "-i", str(path)]) == 2


def test_exit_code_non_block_graph(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    assert main(["coboxicity", "-i", str(path)]) == 3


def test_exit_code_missing_file(capsys):
    assert main(["coboxicity", "-i", "/nonexistent/file"]) == 2


# Runs CLI commands under tracemalloc in a child whose address space is
# capped, so that a missing size guard fails there instead of exhausting
# the machine's memory; prints each exit code, stderr line and peak.
TRACED_CLI = """
import json, resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from antcover.cli import main
for argv in json.loads(sys.argv[1]):
    tracemalloc.start()
    code = main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps([code, peak]))
"""


def test_oversized_vertex_count_exits_before_allocating(tmp_path):
    # a billion vertices, and one more than the limit of a million
    commands = []
    for n in (1000000000, 1000001):
        edgelist = tmp_path / f"huge-{n}.txt"
        edgelist.write_text(f"{n} 0\n")
        structured = tmp_path / f"huge-{n}.json"
        structured.write_text(f'{{"n": {n}, "edges": []}}\n')
        commands += [
            ["coboxicity", "-i", str(edgelist)],
            ["cover", "-i", str(structured), "-f", "structured"],
        ]
    src = str(Path(antcover.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", TRACED_CLI, json.dumps(commands)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert [code for code, _ in results] == [2, 2, 2, 2], done.stderr
    assert all(peak < 1 << 20 for _, peak in results)
    assert done.stderr.count("vertex count 1000000000 exceeds the limit of 1000000\n") == 2
    assert done.stderr.count("vertex count 1000001 exceeds the limit of 1000000\n") == 2


# Runs one CLI command in a child. With a nonnegative budget, the child's
# address space is capped at what it has mapped once the CLI is imported
# plus that many bytes. Prints the exit code and how far the mapped size
# rose above that start.
CAPPED_CLI = """
import json, re, resource, sys
from antcover.cli import main

def mapped(key):
    status = open("/proc/self/status").read()
    return int(re.search(key + r":\\s+(\\d+) kB", status).group(1)) << 10

start = mapped("VmSize")
budget = int(sys.argv[2])
if budget >= 0:
    resource.setrlimit(resource.RLIMIT_AS, (start + budget, start + budget))
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, mapped("VmPeak") - start]))
"""


def capped_path_cover(tmp_path):
    """The output path of a cover of a 20,000-vertex path, and a function
    that runs that cover in a CAPPED_CLI child under a given budget."""
    path = tmp_path / "path.txt"
    path.write_text(serialize_edgelist(path_graph(20_000)))
    out = tmp_path / "cover.json"
    argv = json.dumps(["cover", "-i", str(path), "-o", str(out)])
    src = str(Path(antcover.__file__).resolve().parents[1])

    def run(budget):
        return subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, argv, str(budget)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )

    return out, run


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the mapped size from /proc")
def test_out_of_memory_exits_2_with_one_error_line(tmp_path):
    # 218 kB of input, whose cover needs about 36 MB more than the
    # interpreter has mapped after import. Capped at an eighth of the
    # measured need, the run fails while it builds the graph.
    out, run = capped_path_cover(tmp_path)
    done = run(-1)
    code, need = json.loads(done.stdout)
    assert code == 0 and done.stderr == "" and out.exists()
    out.unlink()
    done = run(need // 8)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)[0] == 2
    assert done.stderr == "error: out of memory\n"
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the mapped size from /proc")
def test_out_of_memory_exits_2_at_every_small_cap(tmp_path):
    # An allocation that fails with no room left to build a MemoryError
    # can surface as SystemError instead; at a few caps in this range it
    # did, and the run ended with a traceback and exit 1.
    _, run = capped_path_cover(tmp_path)
    need = json.loads(run(-1).stdout)[1]
    for budget in range(need // 16, need // 2, 1 << 19):  # steps of 0.5 MB
        done = run(budget)
        assert done.stderr == "error: out of memory\n", (budget, done.stderr[-300:])
        assert done.returncode == 0 and json.loads(done.stdout)[0] == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "1", "--n", "2000"],
        ["coboxicity", "-i", "GRAPH"],
        # argparse prints the help and exits before any command runs
        ["--help"],
        ["cover", "--help"],
    ],
)
def test_stdout_write_failure_exits_2(tmp_path, argv):
    graph_file = write_graph(tmp_path, path_graph(7))
    argv = [graph_file if a == "GRAPH" else a for a in argv]
    src = str(Path(antcover.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "antcover.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    assert done.returncode == 2
    assert done.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_structured_format_flag(tmp_path, capsys):
    from antcover.graph import serialize_structured

    path = tmp_path / "g.json"
    path.write_text(serialize_structured(path_graph(4)))
    assert main(["coboxicity", "-i", str(path), "-f", "structured"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("value, named", [("1.7", "1.7"), ("true", "true"), ('"1"', '"1"')])
def test_structured_non_integer_endpoint_exit_code(tmp_path, capsys, value, named):
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": 3, "edges": [[0, {value}], [1, 2]]}}\n')
    assert main(["coboxicity", "-i", str(path), "-f", "structured"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"an edge endpoint must be a JSON integer, got {named}" in captured.err


@pytest.mark.parametrize("value, named", [("1.5", "1.5"), ("true", "true"), ('"0"', '"0"')])
def test_cover_file_non_integer_vertex_exit_code(tmp_path, capsys, value, named):
    gpath = write_graph(tmp_path, path_graph(4))
    cpath = tmp_path / "cover.json"
    assert main(["cover", "-i", gpath, "-o", str(cpath)]) == 0
    payload = json.loads(cpath.read_text())
    payload["elements"][0]["vertices"].append(json.loads(value))
    cpath.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "-i", gpath, "--cover", str(cpath)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    where = "error: malformed cover payload: cover element 0: "
    assert captured.err == f'{where}a vertex in "vertices" must be a JSON integer, got {named}\n'


def test_gen_checks_the_vertex_limit_before_drawing_edges(monkeypatch, capsys):
    def refuse(vertices):
        raise AssertionError("edges drawn")

    monkeypatch.setattr(graph, "MAX_VERTICES", 50)
    monkeypatch.setattr(generate, "clique_edges", refuse)
    assert main(["gen", "--seed", "1", "--n", "51"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "vertex count 51 exceeds the limit of 50" in captured.err


@pytest.mark.parametrize("prob", ["2", "-0.5", "nan", "inf"])
def test_gen_rejects_an_edge_block_probability_outside_0_1(monkeypatch, capsys, prob):
    def refuse(vertices):
        raise AssertionError("edges drawn")

    monkeypatch.setattr(generate, "clique_edges", refuse)
    assert main(["gen", "--seed", "1", "--n", "10", "--edge-block-prob", prob]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "edge block probability" in captured.err and "not in [0, 1]" in captured.err


@pytest.mark.parametrize("command", ["verify", "boxrep"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"elements": {}}, "cover elements must be a JSON array of objects"),
        ({"elements": ""}, "cover elements must be a JSON array of objects"),
        ({"elements": [1]}, "cover elements must be a JSON array of objects"),
        ({"size": 3}, "cover size 3 does not match its 2 elements"),
        ({"size": 2.0}, "size must be a JSON integer, got 2.0"),
        ([], "cover JSON must be an object"),
        (None, "cover JSON must be an object"),
    ],
)
def test_cover_file_with_malformed_elements_or_size_exits_2(tmp_path, capsys, command, change, message):
    """change is merged into the solver's cover file, or, when it is not an
    object, written in its place."""
    gpath = write_graph(tmp_path, path_graph(7))
    cpath = tmp_path / "cover.json"
    assert main(["cover", "-i", gpath, "-o", str(cpath)]) == 0
    payload = json.loads(cpath.read_text())
    if isinstance(change, dict):
        payload.update(change)
    else:
        payload = change
    cpath.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "-i", gpath, "--cover", str(cpath)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert message in captured.err


def _first_trace(**change):
    return lambda payload: payload["traces"][0].update(change)


def _second_trace(**change):
    return lambda payload: payload["traces"][1].update(change)


def _second_element(**change):
    return lambda payload: payload["elements"][1].update(change)


def _first_component_is_removed(payload):
    trace = payload["traces"][0]
    trace["component"] = trace["removed"]


@pytest.mark.parametrize(
    "edit, status, out, err",
    [
        (lambda payload: payload.pop("traces"), 0, "valid\n", ""),
        (lambda payload: None, 0, "valid\n", ""),
        (_first_trace(removed=[]), 1,
         "invalid\n  run: iteration 0 protects 2, which case 3a does not\n", ""),
        (_first_trace(case="zzz"), 1, "invalid\n  run: iteration 0 takes case 'zzz', which no cointerval run has\n", ""),
        (lambda payload: payload["traces"].pop(), 1, "invalid\n  run: the run has 1 traces for 2 elements\n", ""),
        (_first_component_is_removed, 1,
         "invalid\n  run: iteration 0: its component is not the one it worked in\n", ""),
        (lambda payload: payload.update(traces=[{"garbage": 1}]), 2, "",
         'error: malformed cover traces: trace 0 has no "case"\n'),
        (lambda payload: payload.update(traces=None), 2, "",
         "error: malformed cover traces: cover traces must be a JSON array of objects\n"),
        (_first_trace(removed="0 1"), 2, "", 'error: malformed cover traces: trace 0: "removed" must be a JSON array\n'),
        (_first_trace(apexes=[1.0]), 2, "",
         'error: malformed cover traces: trace 0: a vertex in "apexes" must be a JSON integer, got 1.0\n'),
        (_first_trace(case=1), 2, "", 'error: malformed cover traces: trace 0: "case" must be a JSON string, got 1\n'),
        (_second_trace(removed=["x"]), 2, "",
         'error: malformed cover traces: trace 1: a vertex in "removed" must be a JSON integer, got "x"\n'),
        (lambda payload: payload["elements"][0].pop("edges"), 2, "",
         'error: malformed cover payload: cover element 0 has no "edges"\n'),
        (_second_element(block=5), 2, "", 'error: malformed cover payload: cover element 1: "block" must be a JSON array\n'),
        (_second_element(vertices=None), 2, "",
         'error: malformed cover payload: cover element 1: "vertices" must be a JSON array\n'),
        (_second_element(edges=[[1, 2], [1, 2, 3]]), 2, "",
         "error: malformed cover payload: cover element 1: edge 1 must be a JSON array of two vertices\n"),
        (_second_element(edges=[5]), 2, "",
         "error: malformed cover payload: cover element 1: edge 0 must be a JSON array of two vertices\n"),
        (_second_element(edges={}), 2, "", 'error: malformed cover payload: cover element 1: "edges" must be a JSON array\n'),
        (lambda payload: payload.pop("kind"), 2, "", 'error: malformed cover payload: cover JSON has no "kind"\n'),
    ],
    ids=[
        "no-traces", "untouched", "nothing-removed", "unknown-case", "a-trace-missing",
        "component-is-removed", "garbage", "null", "removed-not-an-array", "float-apex", "integer-case",
        "removed-holds-a-string", "element-without-edges", "block-not-an-array", "null-vertices",
        "edge-of-three", "edge-not-an-array", "edges-not-an-array", "no-kind",
    ],
)
def test_verify_replays_the_run_a_cover_file_records(tmp_path, capsys, edit, status, out, err):
    """edit changes path_graph(7)'s cover file in place; boxrep --cover
    reads its elements and never its traces."""
    gpath = write_graph(tmp_path, path_graph(7))
    cpath = tmp_path / "cover.json"
    assert main(["cover", "-i", gpath, "-o", str(cpath)]) == 0
    payload = json.loads(cpath.read_text())
    edit(payload)
    cpath.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "-i", gpath, "--cover", str(cpath)]) == status
    assert capsys.readouterr() == (out, err)
    malformed_elements = "malformed cover payload" in err
    assert main(["boxrep", "-i", gpath, "--cover", str(cpath)]) == (2 if malformed_elements else 0)


def test_boxrep_malformed_cover_file_exit_code(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["boxrep", "-i", gpath, "--cover", str(bad)]) == 2
    assert "malformed cover JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "boxrep"])
def test_missing_cover_file_is_unreadable_not_malformed(tmp_path, capsys, command):
    gpath = write_graph(tmp_path, path_graph(4))
    missing = str(tmp_path / "missing.json")
    assert main([command, "-i", gpath, "--cover", missing]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("command", ["coboxicity", "cothdim"])
def test_oracle_above_its_bound_exits_2_and_names_it(tmp_path, capsys, command):
    gpath = write_graph(tmp_path, path_graph(30))
    assert main([command, "-i", gpath, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: 30 vertices exceeds the block-graph oracle bound of 14\n"


# json.loads raises ValueError on an integer of more than 4,300 digits and
# RecursionError on deep nesting, neither of them a JSONDecodeError
HUGE_INT = "1" * 5000
DEEP = "[" * 100_000 + "]" * 100_000
HUGE_INT_COVER = json.dumps(
    {"kind": "cointerval", "elements": [{"block": None, "vertices": ["X"], "edges": []}]}
).replace('"X"', HUGE_INT)


@pytest.mark.parametrize(
    "command, graph_text, cover_text, message",
    [
        ("verify", None, HUGE_INT_COVER, "malformed cover JSON"),
        ("verify", None, DEEP, "malformed cover JSON"),
        ("boxrep", None, HUGE_INT_COVER, "malformed cover JSON"),
        ("boxrep", None, DEEP, "malformed cover JSON"),
        ("coboxicity", f'{{"n": {HUGE_INT}, "edges": []}}', None, "malformed structured input"),
        ("coboxicity", f'{{"n": 3, "edges": {DEEP}}}', None, "malformed structured input"),
    ],
    ids=[
        "verify-huge-int", "verify-deep", "boxrep-huge-int", "boxrep-deep",
        "structured-huge-int", "structured-deep",
    ],
)
def test_json_too_big_or_too_deep_exits_2(tmp_path, capsys, command, graph_text, cover_text, message):
    gpath = tmp_path / "g.txt"
    if graph_text is None:
        gpath.write_text(serialize_edgelist(path_graph(3)))
        args = [command, "-i", str(gpath)]
    else:
        gpath.write_text(graph_text)
        args = [command, "-i", str(gpath), "-f", "structured"]
    if cover_text is not None:
        cpath = tmp_path / "cover.json"
        cpath.write_text(cover_text)
        args += ["--cover", str(cpath)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert not captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}: ")


@pytest.mark.parametrize(
    "text, fault",
    [
        ("3 0\n7", "line 2: expected 2 values, found 1"),
        ("3 1\n0 1 2\n", "line 2: expected 2 values, found 3"),
        ("3 1\n0 x\n", "line 2: 'x' is not an integer"),
        ("3 1\n\n0 x\n", "line 3: 'x' is not an integer"),  # blank lines count
    ],
)
def test_malformed_edge_row_exits_2_naming_its_line(tmp_path, capsys, text, fault):
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    assert main(["coboxicity", "-i", str(gpath)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: malformed edge-list input: {fault}\n"


def test_unwritable_output_exit_code(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4))
    out = str(tmp_path / "missing-dir" / "cover.json")
    assert main(["cover", "-i", gpath, "-o", out]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_export_dot_shapes():
    k3 = complete_graph(3)
    text = export_dot(k3)
    assert text.count(" -- ") >= 3 and "graph G {" in text and "blockcut" in text

    p4 = path_graph(4)
    cover, _ = min_cointerval_cover(p4)
    text = export_dot(p4, cover)
    assert text.count('color="red"') == 3  # one element covers all three edges

    empty = build_graph(0, [])
    text = export_dot(empty)
    assert "graph G {" in text


def test_harness_quick(capsys):
    assert main(["harness", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10


def test_harness_without_networkx_names_the_test_extra(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "networkx", None)  # import now fails
    assert main(["harness", "--quick"]) == 2
    captured = capsys.readouterr()
    assert "antcover[test]" in captured.err and not captured.out
