"""Spans, counts, GC timings and memory peaks for the traced run.

Everything is kept in memory and written out once, when the run ends.
None of it is active during a timed (untraced) pass.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext

MB = 1024 * 1024


class Tracer:
    """Spans (name, start, end, parent) and named counts of one pass.

    A span's layer is the part of its name before the first dot, e.g.
    ``peel`` for ``peel.peel_cover.threshold``. Root spans name the input
    they process (``input.<name>``), so all spans of one input share it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def total(self, name: str) -> float:
        """Summed duration of every span with exactly this name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def layer_self_times(self) -> dict[str, float]:
        """Per layer, span durations minus the time their child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            layers[name.split(".", 1)[0]] += t
        return dict(layers)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced twin of a traced pass."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def high(self, name: str, value: float) -> None:
        pass


class GcTimer:
    """Time spent in cyclic garbage collection, from a gc.callbacks hook."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> GcTimer:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class MemoryPeaks:
    """Python-heap peaks per layer call, from tracemalloc.

    Tracing runs only inside measure(), so calls around the measured ones
    keep their normal speed. ``peak`` is the highest traced size during
    the call; ``kept`` is what is still allocated when it returns, i.e.
    what its result holds. Both keep the maximum over calls, in MB.
    """

    def __init__(self) -> None:
        self.peak: Counter = Counter()
        self.kept: Counter = Counter()

    @contextmanager
    def measure(self, name: str):
        tracemalloc.start()
        try:
            yield
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.peak[name] = max(self.peak[name], peak / MB)
        self.kept[name] = max(self.kept[name], current / MB)


class NoMemory:
    """Stand-in for MemoryPeaks when peaks are not being taken."""

    def measure(self, name: str):
        return nullcontext()


NO_MEMORY = NoMemory()
