"""README claims that code can check: the quick tour, the command lines,
the exit codes, the attributes of the block decomposition and the peel
engine names."""

import ast
import re
import shlex
from pathlib import Path

from antcover import cli, cover, peel
from antcover.blocks import BlockDecomposition

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the value a quick-tour comment states: a literal, or "<d>-dimensional"
# for a box representation
STATED = re.compile(r"(True|False|None|\d+)(-dimensional)?\b")


def test_quick_tour_values_match_their_comments():
    section = README.split("\n## Library quick tour\n", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        stated = STATED.match(comment.strip())
        if stated is None:
            exec(code, namespace)
            continue
        expected = ast.literal_eval(stated.group(1))
        if stated.group(2):
            exec(code, namespace)
            value = namespace[code.split("=", 1)[0].strip()].dimension
        else:
            value = eval(code, namespace)
        assert (type(value), value) == (type(expected), expected), line
        checked.append(value)
    assert checked == [2, 3, True, 2, None, 2]


def test_readme_command_lines_parse():
    """Every `antcover ...` line of the "Command line" block names a
    command and options that the parser accepts; only argparse runs, so
    no file is opened and no handler runs."""
    section = README.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#")[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("antcover ")]
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown command or option


def _readme_exit_codes() -> list[int]:
    table = README.split("\nExit codes:\n", 1)[1].strip().split("\n\n", 1)[0]
    return [int(m) for m in re.findall(r"^\| (\d+) \|", table, re.MULTILINE)]


def _cli_exit_codes() -> list[int]:
    listing = cli.__doc__.split("Exit codes:\n", 1)[1]
    return [int(m) for m in re.findall(r"^  (\d+)  ", listing, re.MULTILINE)]


def test_readme_and_cli_list_the_same_exit_codes():
    assert _readme_exit_codes() == _cli_exit_codes() == [0, 1, 2, 2, 2, 3, 4]


def test_readme_block_decomposition_names_match_the_class():
    named = set(re.findall(r"`bd\.(\w+)", README))
    views = {name for name, value in vars(BlockDecomposition).items() if isinstance(value, property)}
    assert set(BlockDecomposition._fields) | views <= named
    assert {name for name in named if not hasattr(BlockDecomposition, name)} == set()


def test_readme_peel_names_exist():
    """Every `_Peel.<name>` and `peel.<name>` README names is a method of
    the engine or a function of its module, and README names none of the
    deletion code that the batch replaced, nor the peel module's own
    component replay, which cover._component_walk replaced."""
    named = re.findall(r"`(_Peel|peel)\.(\w+)", README)
    assert ("_Peel", "remove_all") in named
    owner = {"_Peel": peel._Peel, "peel": peel}
    assert [(o, name) for o, name in named if not hasattr(owner[o], name)] == []
    for gone in ("_remove_vertex", "remove_leaf_members", "removal plan", "_replay_components"):
        assert gone not in README
    assert "`cover._component_walk`" in README and hasattr(cover, "_component_walk")
