"""Golden (co-boxicity, threshold co-dimension) values for the benchmark inputs.

The regular families are the same graph for every seed, so one pair each
is enough (REGULAR). The random and large-block inputs change with the
seed; golden_random.json holds their values for seeds 0..63, recorded
from the code at commit 4d0b6a2 with

    python3 perfbench/golden.py --seeds 64

A run whose seed is outside the table checks those inputs with the
invariants in workloads.check_values only. Do not re-record the table
to make a failing check pass: it is the reference the program must meet.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from inputs import ROOT, edge_text, input_specs

TABLE = Path(__file__).resolve().parent / "golden_random.json"

REGULAR = {
    "path-3000": (1000, 1500),
    "caterpillar-3000": (375, 750),
    "triangle-chain-3001": (751, 1000),
    "broom-3000": (500, 750),
    "caterpillar-2400": (300, 600),
    "path-200": (67, 100),
    "star-200": (1, 1),
}


def load_random() -> dict[str, dict[str, list[int]]]:
    return json.loads(TABLE.read_text())


def expected(name: str, seed: int, table: dict) -> tuple[int, int] | None:
    if name in REGULAR:
        return REGULAR[name]
    pair = table.get(name, {}).get(str(seed))
    return tuple(pair) if pair else None


def record(seeds: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from antcover import coboxicity, cothdim, parse_edgelist

    table: dict[str, dict[str, list[int]]] = {}
    for workload in ("solve-sparse", "solve-dense", "cli-roundtrip"):
        for name, relabel, build in input_specs(workload):
            if relabel:
                continue
            for seed in range(seeds):
                rng = random.Random(f"{seed}:{workload}:{name}")
                g = parse_edgelist(edge_text(*build(rng), None))
                table.setdefault(name, {})[str(seed)] = [coboxicity(g), cothdim(g)]
            print(name, file=sys.stderr)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()
    TABLE.write_text(json.dumps(record(args.seeds), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
