"""Command-line behaviour: outputs, round trips, exit codes, DOT export."""

import json

import pytest

from antcover import peel
from antcover.blocks import block_decomposition, is_block_graph
from antcover.cli import export_dot, main
from antcover.cover import min_cointerval_cover
from antcover.errors import InputError
from antcover.graph import build_graph, parse_edgelist, serialize_edgelist
from helpers import complete_graph, cycle_graph, path_graph


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


def test_cover_emit_and_verify_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(7))
    cpath = str(tmp_path / "cover.json")
    assert main(["cover", "-i", gpath, "-o", cpath]) == 0
    payload = json.loads(open(cpath).read())
    assert payload["kind"] == "cointerval" and payload["size"] == 2
    assert len(payload["traces"]) == 2
    assert main(["verify", "-i", gpath, "--cover", cpath]) == 0
    assert capsys.readouterr().out.strip().endswith("valid")


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
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2
    assert set(payload["boxes"]) == {str(v) for v in range(7)}


def test_gen_is_byte_deterministic_and_block(tmp_path, capsys):
    assert main(["gen", "--seed", "7", "--n", "50"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7", "--n", "50"]) == 0
    second = capsys.readouterr().out
    assert first == second
    g = parse_edgelist(first)
    assert g.vertex_count == 50 and is_block_graph(g)


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--n", "10"])


def test_gen_max_block_two_makes_every_block_an_edge(capsys):
    for seed, n in ((1, 10), (2, 2), (3, 57)):
        assert main(["gen", "--seed", str(seed), "--n", str(n), "--max-block", "2"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert g.vertex_count == n and g.edge_count == n - 1
        assert all(len(b) == 2 for b in block_decomposition(g).blocks)


def test_boxrep_takes_no_component_snapshots(tmp_path, capsys, monkeypatch):
    snapshots = []
    original = peel._peel

    def recording(g, bd, kind, trace_components, elements):
        snapshots.append(trace_components)
        return original(g, bd, kind, trace_components, elements)

    monkeypatch.setattr(peel, "_peel", recording)
    gpath = write_graph(tmp_path, path_graph(7))
    assert main(["boxrep", "-i", gpath]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 2
    assert snapshots == [False]


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


def test_structured_format_flag(tmp_path, capsys):
    from antcover.graph import serialize_structured

    path = tmp_path / "g.json"
    path.write_text(serialize_structured(path_graph(4)))
    assert main(["coboxicity", "-i", str(path), "-f", "structured"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_boxrep_malformed_cover_file_exit_code(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["boxrep", "-i", gpath, "--cover", str(bad)]) == 2
    assert "malformed cover JSON" in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4))
    out = str(tmp_path / "missing-dir" / "cover.json")
    assert main(["cover", "-i", gpath, "-o", out]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_value_command_cover_matches_cover_command(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(9))
    for value, kind in (("coboxicity", "cointerval"), ("cothdim", "threshold")):
        from_value = tmp_path / f"{value}.json"
        from_cover = tmp_path / f"{kind}.json"
        assert main([value, "-i", gpath, "--cover", "-o", str(from_value)]) == 0
        assert main(["cover", "-i", gpath, "--kind", kind, "-o", str(from_cover)]) == 0
        assert from_value.read_text() == from_cover.read_text()
        assert all(t["component"] for t in json.loads(from_value.read_text())["traces"])


def test_export_dot_shapes():
    k3 = complete_graph(3)
    text = export_dot(k3, block_decomposition(k3))
    assert text.count(" -- ") >= 3 and "graph G {" in text and "blockcut" in text

    p4 = path_graph(4)
    cover, _ = min_cointerval_cover(p4)
    text = export_dot(p4, block_decomposition(p4), cover)
    assert text.count('color="red"') == 3  # one element covers all three edges

    empty = build_graph(0, [])
    text = export_dot(empty, block_decomposition(empty))
    assert "graph G {" in text


def test_export_dot_rejects_mismatch():
    with pytest.raises(InputError):
        export_dot(path_graph(4), block_decomposition(path_graph(5)))


def test_harness_quick(capsys):
    assert main(["harness", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
