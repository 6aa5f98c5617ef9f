"""Minimum co-interval and threshold covers of block graphs.

The loop peels one big ant per iteration off a connected component of the
residual graph: leaf blocks with at least three vertices first, then
near-leaf blocks with two apexes (one apex in the threshold variant),
and last the components left, each a whole clique or star. The number of
elements equals the co-boxicity (respectively the threshold
co-dimension) of the input.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

from .cointerval import (
    COINTERVAL,
    THRESHOLD,
    BigAnt,
    ant_order,
    prefix_counts,
)
from .errors import InputError
from .graph import Edge, Graph, _json_int, clique_edges, missing_clique_pair, norm_edge

# verify, boxrep and serialization never solve, so the block decomposition
# and the peel engine load only when a solver runs
if TYPE_CHECKING:
    from .peel import IterationTrace


class Cover(NamedTuple):
    host: Graph
    elements: tuple[BigAnt, ...]
    kind: str  # "cointerval" or "threshold"


class VerificationReport(NamedTuple):
    """Per-element findings of verify_cover."""

    not_subgraphs: tuple[int, ...]
    recognition_failures: tuple[int, ...]
    uncovered: frozenset[Edge]

    @property
    def valid(self) -> bool:
        return not (self.not_subgraphs or self.recognition_failures or self.uncovered)


Interval = tuple[int, int]


class BoxRepresentation(NamedTuple):
    """Axis-parallel integer boxes; disjointness encodes host adjacency.

    Stored sparsely: dimension i keeps intervals[i], the intervals of the
    vertices of one cover element, and ranges[i], the interval that every
    other vertex of the host spans there and that contains all of
    intervals[i]. The store is linear in the total size of the elements;
    boxes[v] assembles v's full d-tuple on demand.
    """

    vertices: frozenset[int]
    intervals: tuple[dict[int, Interval], ...]
    ranges: tuple[Interval, ...]

    @property
    def dimension(self) -> int:
        return len(self.ranges)

    @property
    def boxes(self) -> Mapping[int, tuple[Interval, ...]]:
        return _Boxes(self)

    def satisfies(self, g: Graph) -> bool:
        """Check every pair of boxes against the adjacency of g; False when
        g and the model have different vertices."""
        if g.vertices != self.vertices:
            return False
        verts = sorted(g.vertices)
        boxes = self.boxes
        full = [boxes[v] for v in verts]
        for i, u in enumerate(verts):
            bu = full[i]
            nbrs = g.neighbors(u)
            for v, bv in zip(verts[i + 1:], full[i + 1:]):
                disjoint = any(
                    hu < lv or hv < lu for (lu, hu), (lv, hv) in zip(bu, bv)
                )
                if disjoint != (v in nbrs):
                    return False
        return True


class _Boxes(Mapping):
    """Read-only view of a BoxRepresentation as {vertex: d-tuple of intervals}."""

    __slots__ = ("_rep",)

    def __init__(self, rep: BoxRepresentation):
        self._rep = rep

    def __getitem__(self, v: int) -> tuple[Interval, ...]:
        rep = self._rep
        if v not in rep.vertices:
            raise KeyError(v)
        return tuple(iv.get(v, full) for iv, full in zip(rep.intervals, rep.ranges))

    def __iter__(self) -> Iterator[int]:
        return iter(self._rep.vertices)

    def __len__(self) -> int:
        return len(self._rep.vertices)


@contextmanager
def _gc_paused():
    """Cyclic GC off for the block, restored afterwards even on an exception.

    The solvers build many small containers that make no reference cycles
    and stay alive until the solve ends, so collections during it scan
    live state and free nothing. GC stays off if the caller had turned it
    off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def min_cover(
    g: Graph, kind: str, trace_components: bool = True
) -> tuple[Cover, list[IterationTrace]]:
    """Minimum cover of the given kind, with its traces."""
    from .blocks import checked_block_decomposition
    from .peel import peel_cover

    with _gc_paused():
        elements, traces = peel_cover(g, checked_block_decomposition(g), kind, trace_components)
    return Cover(g, tuple(elements), kind), traces


def min_cointerval_cover(
    g: Graph, trace_components: bool = True
) -> tuple[Cover, list[IterationTrace]]:
    """Minimum co-interval cover of a block graph, with per-iteration traces.

    Free choices (block, cut-vertex) are resolved by minimum vertex id, so
    the output is deterministic. Iterations run in one global order: the
    big leaf block with the least vertex, whatever its component, else the
    near-leaf block with the least vertex, and when neither is left, case
    1 on each component left, by least vertex. Each trace's component
    snapshot is rebuilt after the run by a backward replay of the
    deletions; set trace_components=False on very large inputs to skip
    the snapshots.
    """
    return min_cover(g, COINTERVAL, trace_components)


def min_threshold_cover(
    g: Graph, trace_components: bool = True
) -> tuple[Cover, list[IterationTrace]]:
    """Minimum threshold cover of a block graph; elements are one-apex ants."""
    return min_cover(g, THRESHOLD, trace_components)


def _cover_size(g: Graph, kind: str) -> int:
    """Size of a minimum cover: the iteration count of the cover loop, run
    with no element and no trace, so that it keeps nothing per iteration."""
    from .blocks import checked_block_decomposition
    from .peel import peel_count

    with _gc_paused():
        return peel_count(g, checked_block_decomposition(g), kind)


def coboxicity(g: Graph) -> int:
    """Minimum number of co-interval subgraphs covering all edges of g."""
    return _cover_size(g, COINTERVAL)


def cothdim(g: Graph) -> int:
    """Minimum number of threshold subgraphs covering all edges of g.

    Equivalently, the fewest threshold graphs whose intersection is the
    complement of g. It is not the union-form threshold dimension of the
    complement: on P6 this is 3, that of the complement 2.
    """
    return _cover_size(g, THRESHOLD)


def path_coboxicity(n: int) -> int:
    """Closed form for paths: ceil((n - 1) / 3)."""
    if n < 1:
        raise InputError("paths need at least one vertex")
    return (n + 1) // 3


Certificate = tuple[Sequence[int], list[int]]  # an order and its prefix counts


def _verify(g: Graph, c: Cover) -> tuple[VerificationReport, list[Certificate | None]]:
    """verify_cover, plus each element's certificate, or None where the
    element is not a subgraph of g or fails recognition."""
    threshold = c.kind == THRESHOLD
    not_subgraphs = []
    recognition_failures = []
    certificates: list[Certificate | None] = []
    covered: set[Edge] = set()
    host_vertices, host_edges = g.vertices, g.edges
    for i, el in enumerate(c.elements):
        if not (host_vertices >= el.vertices and el.edges <= host_edges):
            not_subgraphs.append(i)
            certificates.append(None)
            continue
        covered |= el.edges
        order = ant_order(el)
        counts = prefix_counts(el.vertices, el.edges, order, threshold)
        if counts is None:
            recognition_failures.append(i)
        certificates.append(None if counts is None else (order, counts))
    report = VerificationReport(
        tuple(not_subgraphs),
        tuple(recognition_failures),
        frozenset(host_edges - covered),
    )
    return report, certificates


def verify_cover(g: Graph, c: Cover) -> VerificationReport:
    """Check subgraph containment, per-element recognition and coverage.

    An element is recognised when the order that ant_order derives from its
    block and apexes passes prefix_counts against its own edges, in time
    linear in its size. Every element the solvers return is a big ant and
    passes; an element whose order fails is listed in recognition_failures.
    """
    return _verify(g, c)[0]


# the peel cases of each cover kind, as traces name them
_CASES = {COINTERVAL: ("1", "2", "3a", "3b"), THRESHOLD: ("1", "2", "3*-2cuts", "3*-many")}


def validate_run(g: Graph, cover: Cover, traces: list[IterationTrace]) -> None:
    """Replay a run and check its progress, covering and element invariants.

    Trace t must name element t, one trace per element. Every iteration
    must delete vertices of its element and at least one residual edge,
    and its element must contain every residual edge at every deleted
    vertex. The trace must name its element's apexes, and its element's
    block or, in case 1 only, none. Its case must be one of the cover
    kind's four, and its protected vertex none in cases 1 and 2; otherwise
    a vertex of the block, which case 3a takes as an apex and removes and
    every other case neither. The element must be exactly the big
    ant over its block and apexes in the residual graph: the block a
    clique of that graph holding the apexes, which the iteration deletes,
    the edges the clique's plus every residual edge at an apex, and the
    vertices their endpoints. Last, no edge may join two vertices that no
    iteration deleted, so the cover covers g. Raises InputError on the
    first violation, naming its iteration. The replay is linear in the
    size of the graph, the cover and the traces.
    """
    if len(traces) != len(cover.elements):
        raise InputError(f"the run has {len(traces)} traces for {len(cover.elements)} elements")
    alive = set(g.vertices)
    for t, (trace, element) in enumerate(zip(traces, cover.elements)):
        if trace.added_element_index != t:
            raise InputError(f"iteration {t} names element {trace.added_element_index}, not element {t}")
        if not trace.removed <= alive:
            stray = sorted(r for r in trace.removed if r not in g.vertices)
            if stray:
                raise InputError(f"iteration {t} removed vertices not in the graph: {stray}")
            raise InputError(f"iteration {t} removed vertices twice")
        if trace.component is not None and not trace.removed <= trace.component:
            raise InputError(f"iteration {t} removed outside its component")
        if not trace.removed <= element.vertices:
            raise InputError(f"iteration {t} removed vertices outside its element")
        for r in sorted(trace.removed):
            for x in g.neighbors(r):
                if x in alive and norm_edge(r, x) not in element.edges:
                    raise InputError(f"iteration {t}: residual edge ({r}, {x}) not in its element")
        block = element.block
        apexes = {element.apex_u, element.apex_v}
        chosen = trace.chosen_block
        case, protected = trace.case_taken, trace.protected_vertex
        if case not in _CASES[cover.kind]:
            raise InputError(f"iteration {t} takes case {case!r}, which no {cover.kind} run has")
        if set(trace.apexes) != apexes or not (chosen == block or chosen is None and case == "1"):
            raise InputError(f"iteration {t} names apexes or a block other than its element's")
        if case in ("1", "2"):
            protected_ok = protected is None
        else:
            # case 3a takes its protected vertex as an apex and removes it;
            # the other cases leave it in the residual graph
            taken = case == "3a"
            protected_ok = (
                protected in block and (protected in apexes) is taken and (protected in trace.removed) is taken
            )
        if not protected_ok:
            raise InputError(f"iteration {t} protects {protected!r}, which case {case} does not")
        # before the ant is built: a removed apex is never an apex again, so
        # each adjacency is read for one apex at most, and a clique of g has
        # no more pairs than g has edges
        if not (apexes <= trace.removed and apexes <= block <= alive):
            raise InputError(f"iteration {t}: its element's apexes are not removed vertices of a residual block")
        if missing_clique_pair(g, block) is not None:
            raise InputError(f"iteration {t}: its element's block is not a clique of the graph")
        ant_edges = set(clique_edges(block))
        ant_vertices = set(block)
        for a in apexes:
            nbrs = g.neighbors(a) & alive
            ant_vertices |= nbrs
            ant_edges.update([(a, x) if a < x else (x, a) for x in nbrs])
        if element.edges != ant_edges or element.vertices != ant_vertices:
            raise InputError(f"iteration {t}: its element is not the big ant over its block and apexes")
        # the ant has an edge exactly when a removed apex has a residual neighbour
        if not element.edges:
            raise InputError(f"iteration {t} deleted no residual edge")
        alive -= trace.removed
    left = sorted(norm_edge(v, x) for v in alive for x in g.neighbors(v) if x in alive)
    if left:
        raise InputError(f"edge {left[0]} is left between vertices that no iteration removed")


def cover_to_box_representation(g: Graph, c: Cover) -> BoxRepresentation:
    """One dimension per element, from the certificates of verify_cover.

    The vertex at position k of an element's certificate order gets
    [p_k, k], where p_k counts its earlier neighbours; every element of a
    valid cover has a certificate, from its block and apexes. Vertices
    absent from an element span the full range of that dimension, so a
    pair of boxes is disjoint exactly when some element covers the pair
    as an edge, which happens exactly on the edges of g.
    """
    report, certificates = _verify(g, c)
    if not report.valid:
        raise InputError("box representation requires a valid cover")
    intervals: list[dict[int, Interval]] = []
    ranges: list[Interval] = []
    for order, counts in certificates:
        intervals.append(dict(zip(order, zip(counts, range(len(order))))))
        ranges.append((0, len(order) - 1))
    if not ranges:
        intervals, ranges = [{}], [(0, 0)]
    return BoxRepresentation(frozenset(g.vertices), tuple(intervals), tuple(ranges))


# -- serialization -------------------------------------------------------


def cover_to_dict(c: Cover, traces: list[IterationTrace] | None = None) -> dict:
    payload = {
        "kind": c.kind,
        "size": len(c.elements),
        "elements": [
            {
                "block": sorted(el.block),
                "u": el.apex_u,
                "v": el.apex_v,
                "vertices": sorted(el.vertices),
                "edges": [list(e) for e in sorted(el.edges)],
            }
            for el in c.elements
        ],
    }
    if traces is not None:
        payload["traces"] = [
            {
                "component": sorted(t.component) if t.component is not None else None,
                "case": t.case_taken,
                "block": sorted(t.chosen_block) if t.chosen_block is not None else None,
                "protected": t.protected_vertex,
                "apexes": list(t.apexes),
                "removed": sorted(t.removed),
                "element": t.added_element_index,
            }
            for t in traces
        ]
    return payload


def cover_from_dict(g: Graph, payload: object) -> Cover:
    """Cover of g from its JSON form, an object; every vertex id in it must
    be a JSON integer (not a float, boolean or string), elements must be an
    array of objects, each with a block, and size, when present, the number
    of elements."""
    try:
        if type(payload) is not dict:
            raise InputError("cover JSON must be an object")
        kind = payload["kind"]
        if kind not in (COINTERVAL, THRESHOLD):
            raise InputError(f"unknown cover kind {kind!r}")
        entries = payload["elements"]
        if type(entries) is not list or not all(type(entry) is dict for entry in entries):
            raise InputError("cover elements must be a JSON array of objects")
        if "size" in payload and _json_int(payload["size"], "size") != len(entries):
            raise InputError(f"cover size {payload['size']} does not match its {len(entries)} elements")
        elements = []
        for i, entry in enumerate(entries):
            if entry.get("block") is None:
                raise InputError(f"cover element {i} has no block")
            vertices = frozenset(_json_int(v, "a vertex") for v in entry["vertices"])
            edges = frozenset(
                norm_edge(_json_int(a, "an edge endpoint"), _json_int(b, "an edge endpoint"))
                for a, b in entry["edges"]
            )
            stray = {v for e in edges for v in e} - vertices
            if stray:
                raise InputError(f"element edges use undeclared vertices {sorted(stray)}")
            block = frozenset(_json_int(v, "a block vertex") for v in entry["block"])
            apexes = _json_int(entry["u"], "apex u"), _json_int(entry["v"], "apex v")
            elements.append(BigAnt(block, *apexes, vertices, edges))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed cover payload: {exc}") from None
    return Cover(g, tuple(elements), kind)


def box_to_dict(rep: BoxRepresentation) -> dict:
    boxes = rep.boxes
    return {
        "d": rep.dimension,
        # json writes tuples as arrays, so the d-tuple of (lo, hi) pairs
        # goes in as it is, with no list per cell.
        "boxes": {str(v): boxes[v] for v in sorted(boxes)},
    }

