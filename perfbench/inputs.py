"""Seeded benchmark inputs, written as edge-list text before timing starts.

Run as a script, this is the benchmark's set-up step:

    python3 perfbench/inputs.py --workload solve-sparse --seed 1 --out DIR

It writes one ``<name>.txt`` edge-list file per input ("n m" header, then
one sorted "u v" line per edge with u < v) plus ``manifest.json``, and
prints a digest of everything it wrote. The same workload and seed always
give the same bytes.

The seed picks the random structure of the random family and the order
and gluing of the large-block cliques (whose sizes are fixed), both of
which keep the labels their generator gives them, and a
relabelling of the vertex ids of the regular families (path, caterpillar,
triangle chain, broom, star). A regular family is therefore the same graph
up to isomorphism for every seed, so its co-boxicity and threshold
co-dimension are seed-independent (see golden.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The host's load changes the machine's speed from one second to the next,
# and a run reports each operation's fastest time over its rounds, so the
# more short samples a run takes, the steadier it is. No solve operation
# takes much more than a fifth of a second, and a round of a solve workload
# fits about twenty times into a run. The sizes are a twentieth to a
# sixth of the north-star sizes.
SPARSE_N = 3_000
RANDOM_SMALL, RANDOM_LARGE = 1_250, 5_000  # 4x apart for peel.scaling_exp
DENSE_N = 2_000
DENSE_GRAPHS = 4
DENSE_CLIQUE = (20, 60)
CLI_RANDOM_N = 2_500
# The CLI value commands keep a component snapshot per peel iteration. On
# random graphs their total size, and so the child's peak RSS, varies about
# 2x between seeds; on a caterpillar it is the same for every seed, so this
# input sets a steady peak_rss_mb.
CLI_CATERPILLAR_N = 2_400
CLI_COVER_N = 200

WORKLOADS = ("solve-sparse", "solve-dense", "cli-roundtrip")


def path_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(i, i + 1) for i in range(n - 1)]


def caterpillar_edges(spine: int, legs: int) -> tuple[int, list[tuple[int, int]]]:
    """A spine path with `legs` pendant leaves on every spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges


def triangle_chain_edges(triangles: int) -> tuple[int, list[tuple[int, int]]]:
    """Triangles glued in a line, consecutive ones sharing one vertex."""
    edges = []
    for j in range(triangles):
        a, b, c = 2 * j, 2 * j + 1, 2 * j + 2
        edges += [(a, b), (a, c), (b, c)]
    return 2 * triangles + 1, edges


def broom_edges(handle: int, bristles: int) -> tuple[int, list[tuple[int, int]]]:
    """A path of `handle` vertices whose last vertex carries `bristles` leaves."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return handle + bristles, edges


def star_edges(leaves: int) -> tuple[int, list[tuple[int, int]]]:
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def large_block_edges(n: int, rng: random.Random, lo: int, hi: int) -> tuple[int, list[tuple[int, int]]]:
    """Tree of cliques of sizes lo..hi, each glued on a random earlier vertex.

    The clique sizes are the same for every rng, so that the edge count,
    and with it the work and the peak memory, is too; rng picks their
    order and where each is glued.
    """
    sizes, count, fixed = [], 1, random.Random(f"clique sizes {n} {lo} {hi}")
    while count < n:
        sizes.append(min(fixed.randint(lo, hi), n - count + 1))
        count += sizes[-1] - 1
    rng.shuffle(sizes)
    edges = []
    count = 1
    for size in sizes:
        members = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    return n, edges


def random_edges(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    from antcover import random_block_graph

    g = random_block_graph(n, rng.randrange(2**31))
    return n, list(g.edges)


def edge_text(n: int, edges: list[tuple[int, int]], rng: random.Random | None) -> str:
    """Edge-list text of the graph, with its vertex ids permuted by rng if given."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    pairs = sorted(
        (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a]) for a, b in edges
    )
    return "".join([f"{n} {len(pairs)}\n"] + [f"{a} {b}\n" for a, b in pairs])


def input_specs(workload: str) -> list[tuple[str, bool, callable]]:
    """(name, relabel, builder) triples; a builder maps an rng to (n, edges)."""
    if workload == "solve-sparse":
        half = SPARSE_N // 2
        return [
            (f"random-{RANDOM_SMALL}", False, lambda r: random_edges(RANDOM_SMALL, r)),
            (f"random-{RANDOM_LARGE}", False, lambda r: random_edges(RANDOM_LARGE, r)),
            (f"path-{SPARSE_N}", True, lambda r: path_edges(SPARSE_N)),
            (f"caterpillar-{SPARSE_N}", True, lambda r: caterpillar_edges(SPARSE_N // 4, 3)),
            (f"triangle-chain-{SPARSE_N + 1}", True, lambda r: triangle_chain_edges(half)),
            (f"broom-{SPARSE_N}", True, lambda r: broom_edges(half, half)),
        ]
    if workload == "solve-dense":
        return [
            (f"blocks-{DENSE_N}-{i}", False, lambda r: large_block_edges(DENSE_N, r, *DENSE_CLIQUE))
            for i in range(1, DENSE_GRAPHS + 1)
        ]
    if workload == "cli-roundtrip":
        return [
            (f"random-{CLI_RANDOM_N}", False, lambda r: random_edges(CLI_RANDOM_N, r)),
            (f"caterpillar-{CLI_CATERPILLAR_N}", True,
             lambda r: caterpillar_edges(CLI_CATERPILLAR_N // 4, 3)),
            (f"random-{CLI_COVER_N}", False, lambda r: random_edges(CLI_COVER_N, r)),
            (f"path-{CLI_COVER_N}", True, lambda r: path_edges(CLI_COVER_N)),
            (f"star-{CLI_COVER_N}", True, lambda r: star_edges(CLI_COVER_N)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def tampered_cover(text: str) -> dict:
    """A minimum co-interval cover of the graph with one host edge dropped
    from every element, so that `verify` must report it invalid."""
    from antcover import cover_to_dict, min_cointerval_cover, parse_edgelist

    g = parse_edgelist(text)
    cover, _ = min_cointerval_cover(g, trace_components=False)
    payload = cover_to_dict(cover)
    dropped = list(sorted(g.edges)[g.edge_count // 2])
    for el in payload["elements"]:
        el["edges"] = [e for e in el["edges"] if e != dropped]
    return payload


def write_inputs(workload: str, seed: int, out: Path) -> str:
    """Write every input of the workload into `out`; return their digest."""
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    manifest = {}
    for name, relabel, build in input_specs(workload):
        rng = random.Random(f"{seed}:{workload}:{name}")
        n, edges = build(rng)
        text = edge_text(n, edges, rng if relabel else None)
        (out / f"{name}.txt").write_text(text)
        digest.update(name.encode() + text.encode())
        manifest[name] = {"file": f"{name}.txt", "n": n, "m": len(edges)}
    if workload == "cli-roundtrip":
        path_name = f"path-{CLI_COVER_N}"
        payload = json.dumps(tampered_cover((out / f"{path_name}.txt").read_text()))
        (out / "tampered.json").write_text(payload)
        digest.update(payload.encode())
        manifest["tampered"] = {"file": "tampered.json", "graph": path_name}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(write_inputs(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
