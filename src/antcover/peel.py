"""Incremental residual-structure engine behind the minimum-cover loops.

The cover algorithms repeatedly classify a connected component of the
residual graph, add one big ant, and delete a vertex set. Recomputing the
block structure from scratch every iteration is quadratic, so this module
maintains blocks, cut-vertices, block classes and near-leaf eligibility
incrementally under vertex deletions. Because blocks of a block graph only
ever shrink, every maintained quantity is monotone and lazy heaps with
revalidation on pop are safe.

Components are tracked as regions. A deletion can split a region only at
the single protected vertex of the iteration; the fragments are discovered
by a round-robin scan that leaves the largest fragment in place, so total
scanning cost stays near-linear.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .blocks import BlockDecomposition
from .cointerval import BigAnt
from .errors import InternalInvariantError
from .graph import Edge, Graph, clique_edges, connected_components, norm_edge

COINTERVAL = "cointerval"
THRESHOLD = "threshold"


@dataclass(frozen=True)
class IterationTrace:
    """What one iteration of the cover loop did.

    component is None when component snapshots are disabled for very large
    inputs; removed always matches the vertex set deleted this iteration.
    """

    component: frozenset[int] | None
    case_taken: str  # "1", "2", "3a", "3b", "3*-2cuts" or "3*-many"
    chosen_block: frozenset[int] | None
    protected_vertex: int | None
    apexes: tuple[int, ...]
    removed: frozenset[int]
    added_element_index: int


class _Region:
    """One connected piece of the residual graph, with aggregates and heaps."""

    __slots__ = ("rid", "verts", "nblocks", "nedge", "ncut", "bigleaf", "nearleaf", "vheap")

    def __init__(self, rid: int):
        self.rid = rid
        self.verts: set[int] = set()
        self.nblocks = 0
        self.nedge = 0
        self.ncut = 0
        self.bigleaf: list[tuple[int, int]] = []
        self.nearleaf: list[tuple[int, int]] = []
        self.vheap: list[int] = []


class _Scan:
    """Search state of one fragment while a region is being split."""

    __slots__ = ("queue", "seen", "verts", "nblocks", "nedge", "ncut")

    def __init__(self, seed: int):
        self.queue = [seed]
        self.seen = {seed}
        self.verts: set[int] = set()
        self.nblocks = 0
        self.nedge = 0
        self.ncut = 0


class _Peel:
    def __init__(self, g: Graph, bd: BlockDecomposition):
        self.g = g
        self.bverts: list[set[int]] = [set(b) for b in bd.blocks if len(b) >= 2]
        nb = len(self.bverts)
        self.vblocks: dict[int, set[int]] = {v: set() for v in g.vertices}
        for i, b in enumerate(self.bverts):
            for v in b:
                self.vblocks[v].add(i)
        self.alive = [True] * nb
        self.counted_edge = [len(b) == 2 for b in self.bverts]
        self.bcut = [
            sum(1 for x in b if len(self.vblocks[x]) >= 2) for b in self.bverts
        ]
        self.is_int = [c >= 2 for c in self.bcut]
        self.vint: dict[int, set[int]] = {
            v: {i for i in bl if self.is_int[i]} for v, bl in self.vblocks.items()
        }
        self.catt = [
            sum(1 for x in b if len(self.vint[x]) >= 2) for b in self.bverts
        ]
        self.comp_id: dict[int, int] = {}
        self.next_rid = 0

    # -- region construction -------------------------------------------

    def initial_regions(self) -> list[_Region]:
        regions: list[_Region] = []
        by_rid: dict[int, _Region] = {}
        for comp in connected_components(self.g):
            if len(comp) < 2:
                continue
            rg = _Region(self.next_rid)
            self.next_rid += 1
            rg.verts = set(comp)
            rg.vheap = list(comp)
            heapq.heapify(rg.vheap)
            for v in comp:
                self.comp_id[v] = rg.rid
                if len(self.vblocks[v]) >= 2:
                    rg.ncut += 1
            regions.append(rg)
            by_rid[rg.rid] = rg
        for i, b in enumerate(self.bverts):
            rg = by_rid[self.comp_id[next(iter(b))]]
            rg.nblocks += 1
            if self.counted_edge[i]:
                rg.nedge += 1
            self._push_if_eligible(rg, i)
        return regions

    def _push_if_eligible(self, rg: _Region, i: int) -> None:
        if self.bcut[i] == 1 and len(self.bverts[i]) >= 3:
            heapq.heappush(rg.bigleaf, (min(self.bverts[i]), i))
        if self.is_int[i] and self.catt[i] <= 1:
            heapq.heappush(rg.nearleaf, (min(self.bverts[i]), i))

    # -- incremental deletion ------------------------------------------

    def _recheck_block(self, rg: _Region, i: int) -> None:
        if not self.alive[i]:
            return
        size = len(self.bverts[i])
        if self.is_int[i] and self.bcut[i] < 2:
            self.is_int[i] = False
            for x in self.bverts[i]:
                vx = self.vint[x]
                vx.discard(i)
                if len(vx) == 1:
                    j = next(iter(vx))
                    self.catt[j] -= 1
                    if self.is_int[j] and self.catt[j] <= 1:
                        heapq.heappush(rg.nearleaf, (min(self.bverts[j]), j))
            if self.bcut[i] == 1 and size >= 3:
                heapq.heappush(rg.bigleaf, (min(self.bverts[i]), i))
        if size == 2 and not self.counted_edge[i]:
            self.counted_edge[i] = True
            rg.nedge += 1
        if size <= 1:
            self.alive[i] = False
            rg.nblocks -= 1
            if self.counted_edge[i]:
                rg.nedge -= 1
            if size == 1:
                y = next(iter(self.bverts[i]))
                self.bverts[i] = set()
                ybl = self.vblocks[y]
                ybl.discard(i)
                if len(ybl) == 1:
                    rg.ncut -= 1
                    j = next(iter(ybl))
                    self.bcut[j] -= 1
                    self._recheck_block(rg, j)
                elif not ybl:
                    rg.verts.discard(y)

    def _remove_vertex(self, rg: _Region, r: int) -> tuple[list[int], list[int]]:
        """Delete r; return (surviving blocks of r, orphan seed blocks).

        An orphan seed is one block of a vertex y that was the last
        co-member of a dying block of r and still touches other blocks;
        the region fragment through y is reachable only via that seed.
        """
        vbl = self.vblocks[r]
        was_cut = len(vbl) >= 2
        if was_cut:
            rg.ncut -= 1
        rg.verts.discard(r)
        if len(self.vint[r]) >= 2:
            for i in self.vint[r]:
                self.catt[i] -= 1
                if self.is_int[i] and self.catt[i] <= 1:
                    heapq.heappush(rg.nearleaf, (min(self.bverts[i]), i))
        self.vint[r] = set()
        survivors: list[int] = []
        orphan_seeds: list[int] = []
        for i in sorted(vbl):
            members = self.bverts[i]
            members.discard(r)
            if was_cut:
                self.bcut[i] -= 1
            last = next(iter(members)) if len(members) == 1 else None
            self._recheck_block(rg, i)
            if self.alive[i]:
                survivors.append(i)
            elif last is not None and self.vblocks[last]:
                orphan_seeds.append(next(iter(self.vblocks[last])))
        self.vblocks[r] = set()
        return survivors, orphan_seeds

    def remove_plain(self, rg: _Region, vertices: list[int]) -> None:
        """Delete vertices that must not fragment the region."""
        for r in vertices:
            survivors, orphans = self._remove_vertex(rg, r)
            if len(survivors) + len(orphans) > 1:
                raise InternalInvariantError(
                    f"unexpected region fragmentation at vertex {r}"
                )

    # -- splitting -------------------------------------------------------

    def split(self, rg: _Region, seeds: list[int]) -> tuple[list[_Region], bool]:
        """Fragment rg along the given seed blocks.

        Scans all fragments round-robin and stops when one is left; that
        largest fragment inherits the region record (its heaps keep stale
        entries, filtered on pop). Returns (new regions, inheritor alive).
        """

        scans = [_Scan(b) for b in seeds]
        active = scans[:]
        done: list[_Scan] = []
        while len(active) > 1:
            still = []
            for sc in active:
                b = sc.queue.pop()
                sc.nblocks += 1
                if self.counted_edge[b]:
                    sc.nedge += 1
                for x in self.bverts[b]:
                    if x in sc.verts:
                        continue
                    sc.verts.add(x)
                    xbl = self.vblocks[x]
                    if len(xbl) >= 2:
                        sc.ncut += 1
                        for j in xbl:
                            if j not in sc.seen:
                                sc.seen.add(j)
                                sc.queue.append(j)
                if sc.queue:
                    still.append(sc)
                else:
                    done.append(sc)
            active = still

        new_regions = []
        for sc in done:
            piece = _Region(self.next_rid)
            self.next_rid += 1
            piece.verts = sc.verts
            piece.nblocks = sc.nblocks
            piece.nedge = sc.nedge
            piece.ncut = sc.ncut
            piece.vheap = list(sc.verts)
            heapq.heapify(piece.vheap)
            for x in sc.verts:
                self.comp_id[x] = piece.rid
            rg.verts -= sc.verts
            rg.nblocks -= sc.nblocks
            rg.nedge -= sc.nedge
            rg.ncut -= sc.ncut
            for b in sc.seen:
                self._push_if_eligible(piece, b)
            new_regions.append(piece)
        inheritor = bool(active)
        if not inheritor and (rg.nblocks != 0 or rg.verts):
            raise InternalInvariantError("region accounting drifted across a split")
        return new_regions, inheritor

    # -- queries --------------------------------------------------------

    def block_region(self, i: int) -> int:
        return self.comp_id[next(iter(self.bverts[i]))]

    def region_min(self, rg: _Region) -> int | None:
        while rg.vheap and rg.vheap[0] not in rg.verts:
            heapq.heappop(rg.vheap)
        return rg.vheap[0] if rg.vheap else None

    def pop_big_leaf(self, rg: _Region) -> int | None:
        while rg.bigleaf:
            key, b = heapq.heappop(rg.bigleaf)
            if not self.alive[b] or self.block_region(b) != rg.rid:
                continue
            if self.bcut[b] != 1 or len(self.bverts[b]) < 3:
                continue
            m = min(self.bverts[b])
            if m != key:
                heapq.heappush(rg.bigleaf, (m, b))
                continue
            return b
        return None

    def pop_near_leaf(self, rg: _Region) -> int:
        while rg.nearleaf:
            key, b = heapq.heappop(rg.nearleaf)
            if not self.alive[b] or self.block_region(b) != rg.rid:
                continue
            if not self.is_int[b] or self.catt[b] > 1:
                continue
            m = min(self.bverts[b])
            if m != key:
                heapq.heappush(rg.nearleaf, (m, b))
                continue
            heapq.heappush(rg.nearleaf, (m, b))  # may survive this iteration
            return b
        raise InternalInvariantError("no near-leaf block in a pointed non-star region")

    def residual_neighbors(self, v: int) -> set[int]:
        out: set[int] = set()
        for i in self.vblocks[v]:
            out |= self.bverts[i]
        out.discard(v)
        return out

    def pendant_leaves(self, u: int) -> list[int]:
        """Degree-one neighbours of u in the residual graph."""
        leaves = []
        for i in self.vblocks[u]:
            members = self.bverts[i]
            if len(members) == 2:
                x = next(iter(members - {u}))
                if len(self.vblocks[x]) == 1:
                    leaves.append(x)
        return sorted(leaves)


def peel_cover(
    g: Graph,
    bd: BlockDecomposition,
    kind: str,
    trace_components: bool = True,
) -> tuple[list[BigAnt], list[IterationTrace]]:
    """Run the cover loop over every component; see cover.min_cointerval_cover."""
    st = _Peel(g, bd)
    stack = sorted(st.initial_regions(), key=lambda rg: min(rg.verts), reverse=True)
    elements: list[BigAnt] = []
    traces: list[IterationTrace] = []

    while stack:
        rg = stack.pop()
        if rg.nblocks == 0:
            continue
        snapshot = frozenset(rg.verts) if trace_components else None

        if rg.nblocks == 1 or (rg.nedge == rg.nblocks and rg.ncut == 1):
            element, trace_args = _case_one(g, st, rg, snapshot, len(elements))
            elements.append(element)
            traces.append(IterationTrace(*trace_args))
            st.remove_plain(rg, sorted(element.vertices))
            continue

        b = st.pop_big_leaf(rg)
        if b is not None:
            element, trace_args, plain, designated = _case_two(
                g, st, rg, b, snapshot, len(elements)
            )
        elif kind == COINTERVAL:
            b = st.pop_near_leaf(rg)
            element, trace_args, plain, designated = _case_three(
                g, st, rg, b, snapshot, len(elements)
            )
        else:
            b = st.pop_near_leaf(rg)
            element, trace_args, plain, designated = _case_three_threshold(
                g, st, rg, b, snapshot, len(elements)
            )
        elements.append(element)
        trace = IterationTrace(*trace_args)
        traces.append(trace)
        planned = set(plain) if designated is None else set(plain) | {designated}
        if planned != set(trace.removed):
            raise InternalInvariantError("removal plan diverges from the trace")

        st.remove_plain(rg, plain)
        pieces: list[_Region] = []
        keep_rg = True
        if designated is not None:
            survivors, orphans = st._remove_vertex(rg, designated)
            seeds = survivors + orphans
            if len(seeds) >= 2:
                pieces, keep_rg = st.split(rg, seeds)
            else:
                keep_rg = rg.nblocks > 0
        else:
            keep_rg = rg.nblocks > 0

        pending = pieces + ([rg] if keep_rg and rg.nblocks > 0 else [])
        pending.sort(
            key=lambda r: min(r.verts) if r is not rg else st.region_min(r),
            reverse=True,
        )
        stack.extend(pending)

    return elements, traces


def _case_one(g, st: _Peel, rg: _Region, snapshot, idx):
    verts = frozenset(rg.verts)
    if rg.nblocks == 1:
        x = next(iter(rg.verts))
        b = next(iter(st.vblocks[x]))
        block = frozenset(st.bverts[b])
        if block != verts:
            raise InternalInvariantError("single-block region is not a clique")
        u = min(block)
        element = BigAnt(g, block, u, u, verts, frozenset(clique_edges(block)))
        apexes = (u,)
    else:
        x = next(iter(rg.verts))
        if len(st.vblocks[x]) >= 2:
            center = x
        else:
            b0 = next(iter(st.vblocks[x]))
            others = st.bverts[b0] - {x}
            center = next(iter(others))
        leaves = verts - {center}
        block = frozenset({center, min(leaves)})
        edges = frozenset(norm_edge(center, leaf) for leaf in leaves)
        element = BigAnt(g, block, center, center, verts, edges)
        apexes = (center,)
    trace = (snapshot, "1", None, None, apexes, verts, idx)
    return element, trace


def _case_two(g, st: _Peel, rg: _Region, b: int, snapshot, idx):
    block = frozenset(st.bverts[b])
    v = next(x for x in sorted(block) if len(st.vblocks[x]) >= 2)
    nres = st.residual_neighbors(v)
    edges = set(clique_edges(block))
    edges.update(norm_edge(v, w) for w in nres)
    element = BigAnt(g, block, v, v, frozenset(block | nres), frozenset(edges))
    trace = (snapshot, "2", block, None, (v,), block, idx)
    plain = sorted(block - {v})
    return element, trace, plain, v


def _pick_protected(st: _Peel, block: frozenset[int]) -> tuple[list[int], int | None, int]:
    cuts = sorted(x for x in block if len(st.vblocks[x]) >= 2)
    attach = [x for x in sorted(block) if len(st.vint[x]) >= 2]
    if len(attach) > 1:
        raise InternalInvariantError("near-leaf block with several internal attachments")
    anchor = attach[0] if attach else None
    v = anchor if anchor is not None else cuts[0]
    return cuts, anchor, v


def _ant_edges(st: _Peel, block, apexes) -> tuple[frozenset[int], frozenset[Edge]]:
    edges = set(clique_edges(block))
    verts = set(block)
    for a in apexes:
        nres = st.residual_neighbors(a)
        verts |= nres
        edges.update(norm_edge(a, w) for w in nres)
    return frozenset(verts), frozenset(edges)


def _case_three(g, st: _Peel, rg: _Region, b: int, snapshot, idx):
    block = frozenset(st.bverts[b])
    cuts, _anchor, v = _pick_protected(st, block)
    if len(cuts) == 2:
        u = cuts[0] if cuts[1] == v else cuts[1]
        verts, edges = _ant_edges(st, block, (u, v))
        element = BigAnt(g, block, *sorted((u, v)), verts, edges)
        removed = frozenset(block | st.residual_neighbors(u))
        trace = (snapshot, "3a", block, v, (u, v), removed, idx)
        plain = st.pendant_leaves(u) + sorted(block - set(cuts)) + [u]
        return element, trace, plain, v
    rest = [c for c in cuts if c != v]
    u, w = rest[0], rest[1]
    verts, edges = _ant_edges(st, block, (u, w))
    element = BigAnt(g, block, *sorted((u, w)), verts, edges)
    if len(cuts) == 3:
        removed = frozenset((block | st.residual_neighbors(u) | st.residual_neighbors(w)) - {v})
        plain = (
            st.pendant_leaves(u)
            + st.pendant_leaves(w)
            + sorted(block - set(cuts))
            + [u, w]
        )
    else:
        s_u = st.pendant_leaves(u)
        s_w = st.pendant_leaves(w)
        removed = frozenset(set(s_u) | set(s_w) | {u, w})
        plain = s_u + s_w + [u, w]
    trace = (snapshot, "3b", block, v, (u, w), removed, idx)
    return element, trace, plain, None


def _case_three_threshold(g, st: _Peel, rg: _Region, b: int, snapshot, idx):
    block = frozenset(st.bverts[b])
    cuts, _anchor, v = _pick_protected(st, block)
    u = next(c for c in cuts if c != v)
    verts, edges = _ant_edges(st, block, (u,))
    element = BigAnt(g, block, u, u, verts, edges)
    if len(cuts) == 2:
        removed = frozenset((block | st.residual_neighbors(u)) - {v})
        plain = st.pendant_leaves(u) + sorted(block - {u, v}) + [u]
        label = "3*-2cuts"
    else:
        s_u = st.pendant_leaves(u)
        removed = frozenset(set(s_u) | {u})
        plain = s_u + [u]
        label = "3*-many"
    trace = (snapshot, label, block, v, (u,), removed, idx)
    return element, trace, plain, None
