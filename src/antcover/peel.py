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
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

from .cointerval import COINTERVAL, THRESHOLD, BigAnt  # noqa: F401 (THRESHOLD re-exported)
from .errors import InternalInvariantError
from .graph import Graph, clique_edges, norm_edge

if TYPE_CHECKING:
    from .blocks import BlockDecomposition


class IterationTrace(NamedTuple):
    """What one iteration of the cover loop did.

    component is None when component snapshots are disabled for very large
    inputs; removed always matches the vertex set deleted this iteration.
    A trace is a tuple of its fields, so it equals that plain tuple.
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

    def __init__(
        self,
        rid: int,
        verts: set[int],
        vheap: list[int],
        nblocks: int,
        nedge: int,
        ncut: int,
        bigleaf: list[tuple[int, int]],
        nearleaf: list[tuple[int, int]],
    ):
        self.rid = rid
        self.verts = verts
        self.vheap = vheap
        self.nblocks = nblocks
        self.nedge = nedge
        self.ncut = ncut
        self.bigleaf = bigleaf
        self.nearleaf = nearleaf


class _RegionStart(NamedTuple):
    """A component's region as every peel run starts it."""

    rid: int
    verts: tuple[int, ...]  # increasing, so also a heap
    nblocks: int
    nedge: int
    ncut: int
    bigleaf: tuple[tuple[int, int], ...]  # sorted, so also a heap
    nearleaf: tuple[tuple[int, int], ...]


class _Start(NamedTuple):
    """The state every peel run on one graph starts from, computed once per
    graph by _start_state and cached on it. It holds vertex and block
    indices only, never the graph."""

    alive: tuple[bool, ...]
    counted_edge: tuple[bool, ...]
    bcut: tuple[int, ...]
    is_int: tuple[bool, ...]
    nint: tuple[int, ...]
    catt: tuple[int, ...]
    regions: tuple[_RegionStart, ...]


def _start_state(bd: BlockDecomposition) -> _Start:
    """The block flags, attachment counters and first regions of a peel run
    over the graph whose block decomposition is bd."""
    members = bd.members
    # singleton blocks are isolated vertices, which no region reaches, so
    # they start dead
    alive = [len(b) >= 2 for b in members]
    counted_edge = [len(b) == 2 for b in members]
    bcut = list(map(len, bd.block_cuts))
    is_int = [c >= 2 for c in bcut]
    # nint[v]: internal blocks at v; v attaches its blocks to the internal
    # part of the tree when it has two or more
    nint = [0] * len(bd.incidence)
    for b in compress(members, is_int):
        for x in b:
            nint[x] += 1
    catt = [0] * len(members)
    for x in bd.cuts:
        if nint[x] >= 2:
            for i in bd.incidence[x]:
                catt[i] += 1

    # one region per component with an edge; components are numbered by
    # minimum vertex and blocks come by minimum vertex, so the regions
    # arrive in that order and each block list below is sorted
    k = bd.components
    nblocks, nedge, ncut = [0] * k, [0] * k, [0] * k
    verts: list[list[int]] = [[] for _ in range(k)]
    bigleaf: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    nearleaf: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for i, c in enumerate(bd.block_comp):
        if not alive[i]:
            continue
        nblocks[c] += 1
        nedge[c] += counted_edge[i]
        if bcut[i] == 1 and len(members[i]) >= 3:
            bigleaf[c].append((min(members[i]), i))
        if is_int[i] and catt[i] <= 1:
            nearleaf[c].append((min(members[i]), i))
    for x in bd.cuts:
        ncut[bd.vertex_comp[x]] += 1
    for x, c in enumerate(bd.vertex_comp):
        verts[c].append(x)
    regions = tuple(
        _RegionStart(
            c, tuple(verts[c]), nblocks[c], nedge[c], ncut[c], tuple(bigleaf[c]), tuple(nearleaf[c])
        )
        for c in range(k)
        if nblocks[c]
    )
    return _Start(
        tuple(alive), tuple(counted_edge), tuple(bcut), tuple(is_int), tuple(nint), tuple(catt), regions
    )


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
        # bd is the decomposition cached on g, and the start state cached
        # next to it was computed from bd
        start = g._peel_start
        if start is None:
            start = g._peel_start = _start_state(bd)
        self.ids = bd.ids
        self.region_starts = start.regions
        # the member and incidence sets shrink during the run, so each run
        # takes its own copies; the rest is copied from the start state
        self.bverts: list[set[int]] = list(map(set, bd.members))
        self.vblocks: list[set[int]] = list(map(set, bd.incidence))
        self.alive = list(start.alive)
        self.counted_edge = list(start.counted_edge)
        self.bcut = list(start.bcut)
        self.is_int = list(start.is_int)
        self.nint = list(start.nint)
        self.catt = list(start.catt)
        self.comp_id = list(bd.vertex_comp)
        self.next_rid = bd.components

    # -- region construction -------------------------------------------

    def initial_regions(self) -> list[_Region]:
        """One region per connected component with an edge, in increasing
        order of minimum vertex."""
        return [
            _Region(
                t.rid, set(t.verts), list(t.verts), t.nblocks, t.nedge, t.ncut,
                list(t.bigleaf), list(t.nearleaf),
            )
            for t in self.region_starts
        ]

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
        vheap = list(sc.verts)
        heapq.heapify(vheap)
        rg = _Region(self.next_rid, sc.verts, vheap, sc.nblocks, sc.nedge, sc.ncut, [], [])
        self.next_rid += 1
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
        """Bring block i's flags and rg's aggregates up to date after i lost
        a member or a cut. A block that keeps three or more members can
        only stop being internal; a smaller one may become an edge block
        or die. A block that dies leaves its last member y; when y keeps
        one block, y is no longer a cut, and that block is rechecked next."""
        alive, bverts, is_int, bcut = self.alive, self.bverts, self.is_int, self.bcut
        while alive[i]:
            members = bverts[i]
            size = len(members)
            if is_int[i] and bcut[i] < 2:
                is_int[i] = False
                nint, vblocks, catt = self.nint, self.vblocks, self.catt
                for x in members:
                    nint[x] -= 1
                    if nint[x] == 1:
                        # x keeps exactly one internal block
                        for j in vblocks[x]:
                            if is_int[j]:
                                break
                        catt[j] -= 1
                        if catt[j] <= 1:
                            heapq.heappush(rg.nearleaf, (min(bverts[j]), j))
                if size >= 3:
                    if bcut[i] == 1:
                        heapq.heappush(rg.bigleaf, (min(members), i))
                    return
            elif size >= 3:
                return
            if size == 2:
                if not self.counted_edge[i]:
                    self.counted_edge[i] = True
                    rg.nedge += 1
                return
            alive[i] = False
            rg.nblocks -= 1
            if self.counted_edge[i]:
                rg.nedge -= 1
            if not size:
                return
            y = members.pop()
            ybl = self.vblocks[y]
            ybl.discard(i)
            if len(ybl) != 1:
                if not ybl:
                    rg.verts.discard(y)
                return
            rg.ncut -= 1
            (i,) = ybl
            bcut[i] -= 1

    def remove_leaf_members(self, rg: _Region, b: int, plain: frozenset[int]) -> None:
        """Delete the members of big leaf block b other than its cut, all
        at once: each lies in b only, so b is the one block to recheck.
        One by one, the deletions would count b as an edge block at two
        members and uncount it at one; the batch skips both steps and ends
        with the same aggregates."""
        vblocks = self.vblocks
        for x in plain:
            vblocks[x].clear()
        self.bverts[b] -= plain
        rg.verts -= plain
        self._recheck_block(rg, b)

    def _remove_vertex(self, rg: _Region, r: int) -> list[int]:
        """Delete r; return the seed blocks of the region fragments it may
        leave: the surviving blocks of r, then the orphan seeds.

        An orphan seed is one block of a vertex y that was the last
        co-member of a dying block of r and still touches other blocks;
        the region fragment through y is reachable only via that seed.

        A vertex in one block cannot fragment the region and reports none:
        it leaves at most one survivor (its block) or one orphan seed (the
        block's last member). That block keeps its cut count, and no block
        stays internal with fewer than two cuts (every bcut decrement is
        rechecked at once), so only a block left with two members or fewer
        needs a recheck.
        """
        vbl = self.vblocks[r]
        rg.verts.discard(r)
        if len(vbl) == 1:
            i = vbl.pop()
            members = self.bverts[i]
            members.discard(r)
            if len(members) <= 2:
                self._recheck_block(rg, i)
            return []
        was_cut = len(vbl) >= 2
        if was_cut:
            rg.ncut -= 1
        if self.nint[r] >= 2:
            is_int, catt, bverts = self.is_int, self.catt, self.bverts
            for i in vbl:
                if is_int[i]:
                    catt[i] -= 1
                    if catt[i] <= 1:
                        heapq.heappush(rg.nearleaf, (min(bverts[i]), i))
        self.nint[r] = 0
        survivors: list[int] = []
        orphan_seeds: list[int] = []
        alive, bverts, bcut, vblocks = self.alive, self.bverts, self.bcut, self.vblocks
        for i in sorted(vbl):
            members = bverts[i]
            members.discard(r)
            if was_cut:
                bcut[i] -= 1
            last = next(iter(members)) if len(members) == 1 else None
            self._recheck_block(rg, i)
            if alive[i]:
                survivors.append(i)
            elif last is not None and vblocks[last]:
                orphan_seeds.append(next(iter(vblocks[last])))
        self.vblocks[r] = set()
        return survivors + orphan_seeds

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

    def region_min(self, rg: _Region) -> int | None:
        while rg.vheap and rg.vheap[0] not in rg.verts:
            heapq.heappop(rg.vheap)
        return rg.vheap[0] if rg.vheap else None

    def pop_big_leaf(self, rg: _Region) -> int | None:
        """The big leaf block of rg with the least minimum vertex, popped;
        stale entries are dropped and entries with an old key pushed back.
        A dead block has at most one member, so the size test drops it."""
        bigleaf, bverts, bcut, comp_id = rg.bigleaf, self.bverts, self.bcut, self.comp_id
        while bigleaf:
            key, b = heapq.heappop(bigleaf)
            members = bverts[b]
            if bcut[b] != 1 or len(members) < 3:
                continue
            m = min(members)
            if comp_id[m] != rg.rid:
                continue
            if m != key:
                heapq.heappush(bigleaf, (m, b))
                continue
            return b
        return None

    def pop_near_leaf(self, rg: _Region) -> int:
        """The near-leaf block at the heap top, which stays in the heap
        because it may survive this iteration; stale entries are popped.
        A dead block is never internal, so the is_int test drops it."""
        nearleaf, is_int, catt, comp_id = rg.nearleaf, self.is_int, self.catt, self.comp_id
        while nearleaf:
            key, b = nearleaf[0]
            if not is_int[b] or catt[b] > 1:
                heapq.heappop(nearleaf)
                continue
            m = min(self.bverts[b])
            if comp_id[m] != rg.rid:
                heapq.heappop(nearleaf)
                continue
            if m != key:
                heapq.heapreplace(nearleaf, (m, b))
                continue
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
        vblocks, bverts = self.vblocks, self.bverts
        leaves = []
        for i in vblocks[u]:
            members = bverts[i]
            if len(members) == 2:
                x, y = members
                if x == u:
                    x = y
                if len(vblocks[x]) == 1:
                    leaves.append(x)
        leaves.sort()
        return leaves


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
    remove = st._remove_vertex
    stack = st.initial_regions()[::-1]
    traces: list[IterationTrace] = []

    try:
        while stack:
            rg = stack.pop()
            if rg.nblocks == 0:
                continue
            case = None
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
            planned = set(plain)
            if designated is not None:
                planned.add(designated)
            if planned != removed:
                raise InternalInvariantError("removal plan diverges from the trace")

            if case == "2":
                st.remove_leaf_members(rg, b, plain)
            else:
                for r in plain:
                    if len(remove(rg, r)) > 1:
                        raise InternalInvariantError(f"unexpected region fragmentation at vertex {r}")
            pieces: list[_Region] = []
            keep_rg = True
            if designated is not None:
                seeds = remove(rg, designated)
                if len(seeds) >= 2:
                    pieces, keep_rg = st.split(rg, seeds)

            pending = pieces + ([rg] if keep_rg and rg.nblocks > 0 else [])
            if len(pending) >= 2:
                pending.sort(key=st.region_min, reverse=True)
            stack.extend(pending)
    except InternalInvariantError as exc:
        # the iteration's case is chosen together with its trace, which
        # traces then holds; until then case is None
        where = f"iteration {len(traces) - (case is not None)}, region {rg.rid}"
        if case is not None:
            where += f", case {case}"
        raise InternalInvariantError(f"{exc} ({where})") from exc

    if st.ids is not None:
        _relabel(st.ids, elements, traces)
    return traces


def _relabel(ids: tuple[int, ...], elements: list[BigAnt] | None, traces: list[IterationTrace]) -> None:
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
    return block, (v,), "2", block, None, block, block - {v}, v


def _pick_protected(st: _Peel, block: frozenset[int]) -> tuple[list[int], int]:
    """The block's cut vertices in increasing order, and the one to
    protect: its attachment to the internal part, else its least cut."""
    vblocks, nint = st.vblocks, st.nint
    cuts: list[int] = []
    attach = None
    for x in sorted(block):
        if len(vblocks[x]) >= 2:
            cuts.append(x)
        if nint[x] >= 2:
            if attach is not None:
                raise InternalInvariantError("near-leaf block with several internal attachments")
            attach = x
    return cuts, cuts[0] if attach is None else attach


def _case_three(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    cuts, v = _pick_protected(st, block)
    if len(cuts) == 2:
        u = cuts[0] if cuts[1] == v else cuts[1]
        removed = frozenset(block | st.residual_neighbors(u))
        plain = st.pendant_leaves(u)
        if len(block) > 2:
            plain += sorted(block - {u, v})
        plain.append(u)
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
    u = cuts[1] if cuts[0] == v else cuts[0]
    if len(cuts) == 2:
        removed = frozenset((block | st.residual_neighbors(u)) - {v})
        plain = st.pendant_leaves(u)
        if len(block) > 2:
            plain += sorted(block - {u, v})
        plain.append(u)
        return block, (u,), "3*-2cuts", block, v, removed, plain, None
    s_u = st.pendant_leaves(u)
    removed = frozenset(set(s_u) | {u})
    return block, (u,), "3*-many", block, v, removed, s_u + [u], None
