"""Incremental residual-structure engine behind the minimum-cover loops.

The cover algorithms repeatedly add one big ant and delete a vertex set
from the residual graph. Recomputing the block structure from scratch
every iteration is quadratic, so this module maintains blocks,
cut-vertices, block classes and near-leaf eligibility incrementally under
vertex deletions. Because blocks of a block graph only ever shrink, every
maintained quantity is monotone and lazy heaps with revalidation on pop
are safe. Each iteration deletes its removed set in one batch. At every
iteration boundary the maintained state is the one the residual graph
determines, so the order of the deletions inside a batch does not matter.

Every case choice reads only the state of one block, and the components
of the residual graph evolve independently, so one pair of heaps serves
the whole graph: the least big leaf block anywhere is also the least of
its own component, and likewise for near-leaf blocks. When both heaps are
empty, every component left is one block or a star, and a sweep in order
of least vertex takes case 1 once for each. The loop only decides: it
records each iteration's step over vertex indices, and a cover run then
takes the component snapshots from cover._component_walk, the backward
replay that validate_run also checks them with, and writes each element
and trace once, in vertex ids, by one forward pass. A count run makes
the same decisions and keeps nothing per iteration. Only peel_cover
reads the graph; the engine and the loop read the block decomposition.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import TYPE_CHECKING

from .cointerval import COINTERVAL, THRESHOLD, BigAnt, _ant  # noqa: F401 (THRESHOLD re-exported)
from .cover import IterationTrace, _component_walk
from .errors import InternalInvariantError
from .graph import Graph

if TYPE_CHECKING:
    from .blocks import BlockDecomposition


class _Peel:
    """Residual block structure, held in lists addressed by vertex index
    and block index.

    Vertex ids that are not exactly 0..n-1 are compacted (ids[k] is the id
    of index k), so per-vertex lists have n slots; peel_cover writes the
    run in ids. Index order is id order, so every minimum-id choice is the
    same in both.

    bverts[i] is the set of block i's live members; each run copies these
    from the decomposition, since every deletion shrinks them. vblocks[x]
    holds the live blocks at vertex x and starts as the decomposition's
    own incidence tuple, shared by every run: a deleted vertex's entry
    becomes (), and a vertex that loses a block and stays alive (the last
    member of a block that dies) gets a set of its own at that moment.

    The flags, counters and heaps start as copies of the decomposition's
    start state. remove_all deletes one iteration's vertex set. The flags,
    counters and heaps hold their invariants at iteration boundaries;
    inside the batch they are stale until its rechecks have run.
    """

    def __init__(self, bd: BlockDecomposition):
        self.ids = bd.ids
        self.bverts: list[set[int]] = list(map(set, bd.members))
        self.vblocks: list[tuple[int, ...] | set[int]] = list(bd.incidence)
        self.alive = list(bd.edged)
        self.bcut = list(bd.cut_counts)
        self.is_int = list(bd.internal)
        self.nint = list(bd.internal_at)
        self.catt = list(bd.attachments)
        self.bigleaf = list(bd.big_leaves)
        self.nearleaf = list(bd.near_leaves)

    # -- incremental deletion ------------------------------------------

    def _recheck_block(self, i: int) -> None:
        """Bring block i's flags and the heaps up to date after i lost a
        member or a cut. A block that keeps two or more members can only
        stop being internal; a smaller one dies. A block that dies leaves
        its last member y; when y keeps one block, y is no longer a cut and
        that block is rechecked next. Inside a deletion batch the internal
        flags of blocks not yet rechecked may be stale; nint[x] still
        counts the flagged blocks at x, which is all this reads."""
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
                            heapq.heappush(self.nearleaf, (min(bverts[j]), j))
                if size >= 3 and bcut[i] == 1:
                    heapq.heappush(self.bigleaf, (min(members), i))
            if size >= 2:
                return
            alive[i] = False
            if not size:
                return
            y = members.pop()
            ybl = self.vblocks[y]
            if type(ybl) is tuple:
                ybl = self.vblocks[y] = set(ybl)
            ybl.discard(i)
            if len(ybl) != 1:
                return
            (i,) = ybl
            bcut[i] -= 1

    def remove_all(self, removed: frozenset[int]) -> None:
        """Delete the vertex set of one iteration in one pass, then recheck.

        A vertex in one block changes no cut count and no attachment, so its
        block is rechecked only when the pass leaves it fewer than two
        members. A vertex in several blocks was a cut of each, so their cut
        counts drop, and when it lay in two or more internal blocks, each of
        those loses an attachment. After the pass the blocks left with one
        attachment or none go onto the near-leaf heap, and each touched
        block still alive is rechecked.
        """
        vblocks, bverts, bcut, nint = self.vblocks, self.bverts, self.bcut, self.nint
        touched: list[int] = []
        attached: list[int] = []
        for r in removed:
            vbl = vblocks[r]
            vblocks[r] = ()
            if len(vbl) == 1:
                (i,) = vbl
                members = bverts[i]
                members.discard(r)
                if len(members) < 2:
                    touched.append(i)
                continue
            if nint[r] >= 2:
                is_int, catt = self.is_int, self.catt
                for i in vbl:
                    if is_int[i]:
                        catt[i] -= 1
                        if catt[i] <= 1:
                            attached.append(i)
            nint[r] = 0
            for i in vbl:
                bverts[i].discard(r)
                bcut[i] -= 1
            touched += vbl
        for i in attached:
            members = bverts[i]
            if members:
                heapq.heappush(self.nearleaf, (min(members), i))
        alive, recheck = self.alive, self._recheck_block
        for i in touched:
            if alive[i]:
                recheck(i)

    # -- queries --------------------------------------------------------

    def pop_big_leaf(self) -> int | None:
        """The big leaf block with the least minimum vertex, popped; stale
        entries are dropped and entries with an old key pushed back. A dead
        block has at most one member, so the size test drops it."""
        bigleaf, bverts, bcut = self.bigleaf, self.bverts, self.bcut
        while bigleaf:
            key, b = heapq.heappop(bigleaf)
            members = bverts[b]
            if bcut[b] != 1 or len(members) < 3:
                continue
            m = min(members)
            if m != key:
                heapq.heappush(bigleaf, (m, b))
                continue
            return b
        return None

    def pop_near_leaf(self) -> int | None:
        """The near-leaf block at the heap top, which stays in the heap
        because it may survive this iteration, or None when there is none;
        stale entries are popped. A dead block is never internal, so the
        is_int test drops it."""
        nearleaf, is_int, catt = self.nearleaf, self.is_int, self.catt
        while nearleaf:
            key, b = nearleaf[0]
            if not is_int[b] or catt[b] > 1:
                heapq.heappop(nearleaf)
                continue
            m = min(self.bverts[b])
            if m != key:
                heapq.heapreplace(nearleaf, (m, b))
                continue
            return b
        return None

    def component(self, x: int) -> set[int]:
        """The vertices of x's component in the residual graph."""
        vblocks, bverts = self.vblocks, self.bverts
        verts = {x}
        queue = [x]
        seen: set[int] = set()
        for v in queue:
            for i in vblocks[v]:
                if i not in seen:
                    seen.add(i)
                    fresh = bverts[i] - verts
                    verts |= fresh
                    queue.extend(fresh)
        return verts

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
        return leaves


def peel_cover(
    g: Graph,
    bd: BlockDecomposition,
    kind: str,
    trace_components: bool = True,
) -> tuple[list[BigAnt], list[IterationTrace]]:
    """Run the cover loop over every component; see cover.min_cointerval_cover.

    The loop reads only bd, g's decomposition, and records each
    iteration's step over vertex indices. Each step's removed set is
    mapped to vertex ids once, for the component walk and for one
    forward pass that then writes every element and trace once, in
    vertex ids: each element is the big ant over its step's block and
    apexes in g less the vertices that earlier steps removed."""
    steps: list[tuple] = []
    _peel(bd, kind, steps)
    ids = bd.ids
    removed_sets = [step[4] if ids is None else frozenset([ids[x] for x in step[4]]) for step in steps]
    components = repeat(None)
    if trace_components:
        components = [frozenset(own) for own in _component_walk(g, removed_sets)][::-1]
    alive = set(g.vertices)
    neighbors = g.neighbors

    def residual_neighbors(a: int) -> set[int]:
        return neighbors(a) & alive

    elements: list[BigAnt] = []
    traces: list[IterationTrace] = []
    for k, (step, removed, component) in enumerate(zip(steps, removed_sets, components)):
        block, apexes, case, protected, _ = step
        if ids is not None:
            block = frozenset([ids[x] for x in block])
            apexes = tuple([ids[a] for a in apexes])
            protected = None if protected is None else ids[protected]
        chosen = None if case == "1" else block  # the element's block, in ids
        elements.append(_ant(block, apexes, residual_neighbors))
        traces.append(IterationTrace(component, case, chosen, protected, apexes, removed, k))
        alive -= removed
    return elements, traces


def peel_count(bd: BlockDecomposition, kind: str) -> int:
    """The cover size: the number of iterations of peel_cover's loop, run
    with every decision the same but with no step recorded, so that the
    run keeps nothing per iteration."""
    return _peel(bd, kind, None)


def _peel(bd: BlockDecomposition, kind: str, steps: list[tuple] | None) -> int:
    """The cover loop over vertex indices; returns its iteration count.
    With a list for steps, each iteration appends its step, the tuple its
    case returns; with None the loop only counts."""
    st = _Peel(bd)
    remove_all = st.remove_all
    vblocks, alive = st.vblocks, st.alive
    case_three = _case_three if kind == COINTERVAL else _case_three_threshold
    n = len(vblocks)
    x = 0  # the sweep's next vertex
    k = 0  # the iteration under way; the count when the loop ends

    try:
        while True:
            case = None
            b = st.pop_big_leaf()
            if b is not None:
                step = _case_two(st, b)
            else:
                b = st.pop_near_leaf()
                if b is not None:
                    step = case_three(st, b)
                else:
                    # with no big leaf and no near-leaf block anywhere, every
                    # component is one block or a star, which case 1 checks;
                    # only an isolated input vertex keeps a dead block
                    while x < n and not (vblocks[x] and alive[next(iter(vblocks[x]))]):
                        x += 1
                    if x == n:
                        break
                    step = _case_one(st, x)
            _, _, case, _, removed = step
            if steps is not None:
                steps.append(step)
            remove_all(removed)
            k += 1
    except InternalInvariantError as exc:
        # case is None until the iteration's case is chosen. The cases
        # check before the iteration deletes anything, so the chosen
        # block's component is still whole.
        least = min(st.component(x if b is None else min(st.bverts[b])))
        region = least if st.ids is None else st.ids[least]
        where = f"iteration {k}, region {region}"
        if case is not None:
            where += f", case {case}"
        raise InternalInvariantError(f"{exc} ({where})") from exc
    return k


# Each case returns the step of one iteration: (element block, apexes,
# case, protected vertex, removed), over vertex indices. The trace's
# chosen block is the element block in every case but case 1. removed is
# both the trace's set and the batch that remove_all deletes.


def _case_one(st: _Peel, x: int):
    """The component of x is one block, or a star of edge blocks at a
    centre. Live blocks at the centre have two or more members and share
    only the centre, so it is a star exactly when the centre has one block
    for each other vertex of the component."""
    verts = frozenset(st.component(x))
    xbl = st.vblocks[x]
    members = st.bverts[next(iter(xbl))]
    if len(members) == len(verts):
        block = frozenset(members)
        if block != verts:
            raise InternalInvariantError("single-block region is not a clique")
        center = min(block)
    else:
        center = x if len(xbl) >= 2 else next(iter(members - {x}))
        if len(st.vblocks[center]) != len(verts) - 1:
            raise InternalInvariantError("no near-leaf block in a pointed non-star region")
        block = frozenset({center, min(verts - {center})})
    return block, (center,), "1", None, verts


def _case_two(st: _Peel, b: int):
    """A big leaf block has one cut vertex, its apex."""
    block = frozenset(st.bverts[b])
    vblocks = st.vblocks
    v = next(x for x in block if len(vblocks[x]) >= 2)
    return block, (v,), "2", None, block


def _pick_protected(st: _Peel, block: frozenset[int]) -> tuple[list[int], int]:
    """The block's cut vertices in increasing order, and the one to
    protect: its attachment to the internal part, else its least cut."""
    vblocks, nint = st.vblocks, st.nint
    cuts: list[int] = []
    attach = None
    for x in block:
        if len(vblocks[x]) >= 2:
            cuts.append(x)
        if nint[x] >= 2:
            if attach is not None:
                raise InternalInvariantError("near-leaf block with several internal attachments")
            attach = x
    cuts.sort()
    return cuts, cuts[0] if attach is None else attach


def _case_three(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    cuts, v = _pick_protected(st, block)
    if len(cuts) == 2:
        u = cuts[0] if cuts[1] == v else cuts[1]
        removed = frozenset(block | st.residual_neighbors(u))
        return block, (u, v), "3a", v, removed
    rest = [c for c in cuts if c != v]
    u, w = rest[0], rest[1]
    if len(cuts) == 3:
        removed = frozenset((block | st.residual_neighbors(u) | st.residual_neighbors(w)) - {v})
    else:
        removed = frozenset((*st.pendant_leaves(u), *st.pendant_leaves(w), u, w))
    return block, (u, w), "3b", v, removed


def _case_three_threshold(st: _Peel, b: int):
    block = frozenset(st.bverts[b])
    cuts, v = _pick_protected(st, block)
    u = cuts[1] if cuts[0] == v else cuts[0]
    if len(cuts) == 2:
        removed = frozenset((block | st.residual_neighbors(u)) - {v})
        return block, (u,), "3*-2cuts", v, removed
    return block, (u,), "3*-many", v, frozenset((*st.pendant_leaves(u), u))
