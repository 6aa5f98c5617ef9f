"""The machine's speed during a run, from a fixed reference task.

On a shared host the neighbours' load can make the same code run up to
twice as slowly for a minute or more at a time, so raw times of runs made
a few minutes apart are not comparable. A run therefore also times a
reference task after every operation. The reference is plain Python in
the benchmark itself, built to load the machine the way the program does:
it parses edge-list text into dict-of-set adjacency and walks it
breadth-first, over a graph that is the same in every run. It never calls
the program, so a change to the program cannot move it.

The fastest reference time of a run measures how fast the machine could
go during that run. A run reports its times scaled by

    REFERENCE_S / fastest reference time

that is, in seconds as they would read on a machine on which the reference
takes REFERENCE_S, which is what it took in a quiet minute of the 2-vCPU
Xeon VM (Python 3.11.7) the benchmark was tuned on. Work done in child
processes is scaled the same way by the reference run as a fresh
interpreter, nominally REFERENCE_CHILD_S. Changing the reference or the
nominal times rescales every time the benchmark reports.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time

REFERENCE_S = 0.012
REFERENCE_CHILD_S = 0.07

_N = 6_000


@functools.cache
def _reference_text() -> str:
    """A random tree on _N vertices plus 4,000 random extra edges; built on
    first use, so that importing this module costs no memory."""
    rng = random.Random(0)
    edges = [(i, rng.randrange(i)) for i in range(1, _N)]
    edges += [(rng.randrange(_N), rng.randrange(_N)) for _ in range(4_000)]
    return "".join(f"{a} {b}\n" for a, b in edges)


def reference() -> int:
    """Parse the reference text into adjacency sets and return the sum of BFS depths."""
    adj: dict[int, set[int]] = {}
    for line in _reference_text().splitlines():
        a, b = map(int, line.split())
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    depth = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sum(depth.values())


class MachineSpeed:
    """Fastest reference times of one run, and the scales they give.

    The reference runs either in this process ("process") or, for work
    done in child processes (CLI commands, set-ups), as a fresh
    interpreter that runs this file ("child"), so that it also pays for
    starting Python and its site imports as the children do.
    """

    NOMINAL = {"process": REFERENCE_S, "child": REFERENCE_CHILD_S}

    def __init__(self) -> None:
        self.fastest = dict.fromkeys(self.NOMINAL, float("inf"))
        self.samples = dict.fromkeys(self.NOMINAL, 0)
        self._depths = reference()

    def sample(self, kind: str) -> None:
        t0 = time.perf_counter()
        if kind == "child":
            done = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                                  timeout=60, check=True)
            depths = int(done.stdout)
        else:
            depths = reference()
        self.fastest[kind] = min(self.fastest[kind], time.perf_counter() - t0)
        self.samples[kind] += 1
        if depths != self._depths:
            raise RuntimeError("the reference task gave a different result")

    def scale(self, kind: str) -> float:
        return self.NOMINAL[kind] / self.fastest[kind]


if __name__ == "__main__":
    print(reference())
