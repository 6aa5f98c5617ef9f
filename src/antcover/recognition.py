"""Co-interval recognition: transitive orientation, then out-degree order.

A graph h is co-interval exactly when its complement is an interval
graph, that is, when h has a transitive orientation and its complement
is chordal (Gilmore and Hoffman). For such an h every transitive
orientation is an interval order: a 2+2 suborder a<b, c<d would be an
induced 2K2 of h and so an induced C4 of its chordal complement. The
successor sets of an interval order are nested (Fishburn), so sorting by
decreasing out-degree lists a vertex after every vertex whose successor
set strictly contains its own. The earlier neighbours of a vertex x in
that order are then its predecessors (a successor y of x has
succ(y) a proper subset of succ(x), so it comes later), and if y < x
comes before x, every z before y has succ(z) containing succ(y), hence
x: the earlier neighbours form a prefix. That is the certificate that
cointerval.prefix_counts checks in linear time. So the recogniser
orients h, sorts, and lets prefix_counts decide; a failed check means
that h is not co-interval, and the chordality of the complement never
has to be tested on its own, nor the complement built.
"""

from __future__ import annotations

from .cointerval import prefix_counts
from .graph import Graph


def transitive_orientation(g: Graph) -> set[tuple[int, int]] | None:
    """A transitive orientation of g's edges, or None if none exists.

    Forced implication classes are peeled off one at a time; edges already
    removed count as non-adjacent for later forcing. The class of an edge
    and whether it meets its own reverse do not depend on the order in
    which forced arcs are explored. When no class does, the union of the
    classes is transitive (Golumbic, Algorithmic Graph Theory and Perfect
    Graphs, Thm. 5.1), so the orientation is not checked again.
    """
    adj_r = {v: set(g.neighbors(v)) for v in g.vertices}
    arcs: set[tuple[int, int]] = set()

    for a, b in sorted(g.edges):
        if b not in adj_r[a]:
            continue
        # each edge of the class, as (min, max), with its forced arc
        cls: dict[tuple[int, int], tuple[int, int]] = {(a, b): (a, b)}
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            for z in adj_r[x] - adj_r[y] - {y}:
                key = (x, z) if x < z else (z, x)
                prev = cls.get(key)
                if prev is None:
                    cls[key] = (x, z)
                    queue.append((x, z))
                elif prev != (x, z):
                    return None
            for z in adj_r[y] - adj_r[x] - {x}:
                key = (z, y) if z < y else (y, z)
                prev = cls.get(key)
                if prev is None:
                    cls[key] = (z, y)
                    queue.append((z, y))
                elif prev != (z, y):
                    return None
        arcs.update(cls.values())
        for u, v in cls:
            adj_r[u].discard(v)
            adj_r[v].discard(u)
    return arcs


def cointerval_order(h: Graph) -> tuple[int, ...] | None:
    """A co-interval certificate order of h, or None if h is not co-interval.

    The vertices sorted by (-out-degree, id) under a transitive orientation
    of h; prefix_counts accepts the order exactly when h is co-interval
    (see the module docstring). Time O(deg_max * |E|) for the orientation,
    memory linear in the size of h.
    """
    arcs = transitive_orientation(h)
    if arcs is None:
        return None
    out_degree = dict.fromkeys(h.vertices, 0)
    for x, _ in arcs:
        out_degree[x] += 1
    order = tuple(sorted(h.vertices, key=lambda v: (-out_degree[v], v)))
    return order if prefix_counts(h.vertices, h.edges, order) is not None else None
