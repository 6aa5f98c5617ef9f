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
from itertools import compress

from .blocks import BlockDecomposition
from .cointerval import BigAnt
from .errors import InternalInvariantError
from .graph import Graph, clique_edges, norm_edge

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
    """Search state of one region or fragment, grown block by block."""

    __slots__ = ("queue", "seen", "verts", "nblocks", "nedge", "ncut")

    def __init__(self, seed: int):
        self.queue = [seed]
        self.seen = {seed}
        self.verts: set[int] = set()
        self.nblocks = 0
        self.nedge = 0
        self.ncut = 0


class _Peel:
    """Residual block structure, held in lists addressed by vertex index
    and block index.

    Vertex ids that are not exactly 0..n-1 are compacted (ids[k] is the id
    of index k), so per-vertex lists have n slots; the run is mapped back
    to ids at the end. Index order is id order, so every minimum-id choice
    is the same in both.
    """

    def __init__(self, g: Graph, bd: BlockDecomposition):
        ix = bd.index
        self.ix = ix
        self.ids = ix.ids
        # per-vertex and per-block state copied from the graph's cached
        # block index; singleton blocks are isolated vertices, which no
        # region reaches, so they start dead
        self.bverts: list[set[int]] = list(map(set, ix.members))
        self.vblocks: list[set[int]] = list(map(set, ix.incidence))
        self.alive = [len(b) >= 2 for b in ix.members]
        self.counted_edge = [len(b) == 2 for b in ix.members]
        self.bcut = list(map(len, ix.block_cuts))
        self.is_int = [c >= 2 for c in self.bcut]
        # nint[v]: internal blocks at v; v attaches its blocks to the
        # internal part of the tree when it has two or more
        nint = self.nint = [0] * g.vertex_count
        for b in compress(ix.members, self.is_int):
            for x in b:
                nint[x] += 1
        self.catt = [0] * len(self.bverts)
        for x in ix.cuts:
            if nint[x] >= 2:
                for i in ix.incidence[x]:
                    self.catt[i] += 1
        self.comp_id = list(ix.vertex_comp)
        self.next_rid = ix.components

    # -- region construction -------------------------------------------

    def initial_regions(self) -> list[_Region]:
        """One region per connected component with an edge, in increasing
        order of minimum vertex, read off the components of the index."""
        ix = self.ix
        regions: dict[int, _Region] = {}
        for i, c in enumerate(ix.block_comp):
            if not self.alive[i]:
                continue
            rg = regions.get(c)
            if rg is None:
                rg = regions[c] = _Region(c)
            rg.nblocks += 1
            if self.counted_edge[i]:
                rg.nedge += 1
            self._push_if_eligible(rg, i)
        for x in ix.cuts:
            regions[ix.vertex_comp[x]].ncut += 1
        for x, c in enumerate(ix.vertex_comp):
            rg = regions.get(c)
            if rg is not None:
                rg.verts.add(x)
        for rg in regions.values():
            rg.vheap = sorted(rg.verts)  # a sorted list is a heap
        # blocks come by minimum vertex, so each component's first block
        # holds its minimum vertex and the regions arrive in that order
        return list(regions.values())

    def _scan_block(self, sc: _Scan) -> bool:
        """Add the next queued block to the scan; True while more are queued."""
        queue, seen, verts, vblocks = sc.queue, sc.seen, sc.verts, self.vblocks
        b = queue.pop()
        sc.nblocks += 1
        if self.counted_edge[b]:
            sc.nedge += 1
        for x in self.bverts[b]:
            if x in verts:
                continue
            verts.add(x)
            xbl = vblocks[x]
            if len(xbl) >= 2:
                sc.ncut += 1
                for j in xbl:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
        return bool(queue)

    def _new_region(self, sc: _Scan) -> _Region:
        rg = _Region(self.next_rid)
        self.next_rid += 1
        rg.verts = sc.verts
        rg.nblocks = sc.nblocks
        rg.nedge = sc.nedge
        rg.ncut = sc.ncut
        rg.vheap = list(sc.verts)
        heapq.heapify(rg.vheap)
        for x in sc.verts:
            self.comp_id[x] = rg.rid
        for b in sc.seen:
            self._push_if_eligible(rg, b)
        return rg

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
                self.nint[x] -= 1
                if self.nint[x] == 1:
                    j = next(j for j in self.vblocks[x] if self.is_int[j])
                    self.catt[j] -= 1
                    if self.catt[j] <= 1:
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
        if self.nint[r] >= 2:
            for i in vbl:
                if self.is_int[i]:
                    self.catt[i] -= 1
                    if self.catt[i] <= 1:
                        heapq.heappush(rg.nearleaf, (min(self.bverts[i]), i))
        self.nint[r] = 0
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
        active = [_Scan(b) for b in seeds]
        done: list[_Scan] = []
        while len(active) > 1:
            still = []
            for sc in active:
                (still if self._scan_block(sc) else done).append(sc)
            active = still

        new_regions = []
        for sc in done:
            rg.verts -= sc.verts
            rg.nblocks -= sc.nblocks
            rg.nedge -= sc.nedge
            rg.ncut -= sc.ncut
            new_regions.append(self._new_region(sc))
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
    elements: list[BigAnt] = []
    traces = _peel(g, bd, kind, trace_components, elements)
    return elements, traces


def peel_count(g: Graph, bd: BlockDecomposition, kind: str) -> tuple[int, list[IterationTrace]]:
    """The cover size from the loop of peel_cover, run without building any
    element; also returns the iteration traces, without component snapshots."""
    traces = _peel(g, bd, kind, False, None)
    return len(traces), traces


def _peel(
    g: Graph,
    bd: BlockDecomposition,
    kind: str,
    trace_components: bool,
    elements: list[BigAnt] | None,
) -> list[IterationTrace]:
    """The cover loop. One element per iteration is appended to elements,
    unless that is None; the traces are returned."""
    st = _Peel(g, bd)
    stack = st.initial_regions()[::-1]
    traces: list[IterationTrace] = []

    while stack:
        rg = stack.pop()
        if rg.nblocks == 0:
            continue
        snapshot = frozenset(rg.verts) if trace_components else None

        if rg.nblocks == 1 or (rg.nedge == rg.nblocks and rg.ncut == 1):
            step = _case_one(st, rg)
        else:
            b = st.pop_big_leaf(rg)
            if b is not None:
                step = _case_two(st, b)
            elif kind == COINTERVAL:
                step = _case_three(st, st.pop_near_leaf(rg))
            else:
                step = _case_three_threshold(st, st.pop_near_leaf(rg))
        ant_block, apexes, case, chosen, protected, removed, plain, designated = step
        if elements is not None:
            elements.append(_ant(g, st, ant_block, apexes))
        traces.append(
            IterationTrace(snapshot, case, chosen, protected, apexes, removed, len(traces))
        )
        planned = set(plain) if designated is None else set(plain) | {designated}
        if planned != removed:
            raise InternalInvariantError("removal plan diverges from the trace")

        st.remove_plain(rg, plain)
        pieces: list[_Region] = []
        keep_rg = True
        if designated is not None:
            survivors, orphans = st._remove_vertex(rg, designated)
            seeds = survivors + orphans
            if len(seeds) >= 2:
                pieces, keep_rg = st.split(rg, seeds)

        pending = pieces + ([rg] if keep_rg and rg.nblocks > 0 else [])
        pending.sort(key=st.region_min, reverse=True)
        stack.extend(pending)

    if st.ids is not None:
        _relabel(st.ids, elements, traces)
    return traces


def _relabel(ids: list[int], elements: list[BigAnt] | None, traces: list[IterationTrace]) -> None:
    """Map a run over vertex indices back to the vertex ids, in place."""
    def lab(s):
        return None if s is None else frozenset(ids[x] for x in s)

    for k, t in enumerate(traces):
        traces[k] = IterationTrace(
            lab(t.component),
            t.case_taken,
            lab(t.chosen_block),
            None if t.protected_vertex is None else ids[t.protected_vertex],
            tuple(ids[a] for a in t.apexes),
            lab(t.removed),
            t.added_element_index,
        )
    for k, el in enumerate(elements or ()):
        elements[k] = BigAnt(
            el.host,
            lab(el.block),
            ids[el.apex_u],
            ids[el.apex_v],
            lab(el.vertices),
            frozenset((ids[a], ids[b]) for a, b in el.edges),
        )


# Each case returns the step of one iteration:
# (element block, apexes, case, chosen block, protected vertex, removed,
#  vertices to delete without splitting, vertex whose deletion may split).


def _ant(g: Graph, st: _Peel, block: frozenset[int], apexes: tuple[int, ...]) -> BigAnt:
    """The big ant over block with the given apexes in the residual graph:
    the block's clique plus every residual edge at an apex."""
    edges = set(clique_edges(block))
    verts = set(block)
    for a in apexes:
        nres = st.residual_neighbors(a)
        verts |= nres
        edges.update(norm_edge(a, w) for w in nres)
    return BigAnt(g, block, min(apexes), max(apexes), frozenset(verts), frozenset(edges))


def _case_one(st: _Peel, rg: _Region):
    verts = frozenset(rg.verts)
    x = next(iter(rg.verts))
    if rg.nblocks == 1:
        block = frozenset(st.bverts[next(iter(st.vblocks[x]))])
        if block != verts:
            raise InternalInvariantError("single-block region is not a clique")
        center = min(block)
    else:
        if len(st.vblocks[x]) >= 2:
            center = x
        else:
            others = st.bverts[next(iter(st.vblocks[x]))] - {x}
            center = next(iter(others))
        block = frozenset({center, min(verts - {center})})
    return block, (center,), "1", None, None, verts, sorted(verts), None


def _case_two(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    v = next(x for x in sorted(block) if len(st.vblocks[x]) >= 2)
    return block, (v,), "2", block, None, block, sorted(block - {v}), v


def _pick_protected(st: _Peel, block: frozenset[int]) -> tuple[list[int], int]:
    cuts = sorted(x for x in block if len(st.vblocks[x]) >= 2)
    attach = [x for x in sorted(block) if st.nint[x] >= 2]
    if len(attach) > 1:
        raise InternalInvariantError("near-leaf block with several internal attachments")
    v = attach[0] if attach else cuts[0]
    return cuts, v


def _case_three(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    cuts, v = _pick_protected(st, block)
    if len(cuts) == 2:
        u = cuts[0] if cuts[1] == v else cuts[1]
        removed = frozenset(block | st.residual_neighbors(u))
        plain = st.pendant_leaves(u) + sorted(block - set(cuts)) + [u]
        return block, (u, v), "3a", block, v, removed, plain, v
    rest = [c for c in cuts if c != v]
    u, w = rest[0], rest[1]
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
    return block, (u, w), "3b", block, v, removed, plain, None


def _case_three_threshold(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    cuts, v = _pick_protected(st, block)
    u = next(c for c in cuts if c != v)
    if len(cuts) == 2:
        removed = frozenset((block | st.residual_neighbors(u)) - {v})
        plain = st.pendant_leaves(u) + sorted(block - {u, v}) + [u]
        return block, (u,), "3*-2cuts", block, v, removed, plain, None
    s_u = st.pendant_leaves(u)
    removed = frozenset(set(s_u) | {u})
    return block, (u,), "3*-many", block, v, removed, s_u + [u], None
