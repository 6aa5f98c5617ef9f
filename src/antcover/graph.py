"""Simple undirected graphs with stable integer vertex ids."""

from __future__ import annotations

import json
from collections.abc import Iterable

from .errors import InputError

Edge = tuple[int, int]

# The largest vertex count build_graph accepts, ten times the
# 100,000-vertex graphs the solvers are tuned for. Both input formats
# declare n before any edge and build_graph allocates n adjacency sets, so
# this bound, checked first, keeps a header such as "10000000 0" from
# asking for ten million sets; the generator checks it before drawing edges.
MAX_VERTICES = 1_000_000


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    Vertex ids are non-negative integers that survive deletions unchanged,
    so graphs derived from a host keep referring to the host's labels.
    The sets returned by neighbors() are internal state; callers must not
    mutate them. Two caches fill on first use: the edge set and the
    blocks.BlockDecomposition that blocks.block_decomposition computes,
    which refers to vertex and block indices only, never back to the graph.
    """

    __slots__ = ("_adj", "_edges", "_block_index")

    def __init__(self, adj: dict[int, set[int]]):
        self._adj = adj
        self._edges: frozenset[Edge] | None = None
        self._block_index = None

    @classmethod
    def from_data(cls, vertices: Iterable[int], edges: Iterable[Edge]) -> Graph:
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if u not in adj or v not in adj:
                raise InputError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj)

    @property
    def vertices(self):
        """Set-like view of the vertex ids (no copy)."""
        return self._adj.keys()

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges is None:
            self._edges = frozenset(
                (u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v
            )
        return self._edges

    @property
    def edge_count(self) -> int:
        """Half the degree sum; unlike edges, builds no edge set."""
        return sum(map(len, self._adj.values())) // 2

    def neighbors(self, v: int) -> set[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def induced(self, keep: Iterable[int]) -> Graph:
        """Induced subgraph on the given vertices (ids preserved)."""
        keep_set = set(keep)
        unknown = keep_set - self._adj.keys()
        if unknown:
            raise InputError(f"unknown vertices {sorted(unknown)}")
        adj = {v: self._adj[v] & keep_set for v in keep_set}
        return Graph(adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((frozenset(self._adj), self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def check_vertex_count(n: int) -> None:
    """Raise InputError unless 0 <= n <= MAX_VERTICES."""
    if n < 0:
        raise InputError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def build_graph(n: int, edge_list: Iterable[Edge]) -> Graph:
    """Graph on vertices 0..n-1 with the given edges; duplicates collapse.

    Raises InputError on loops, endpoints outside range, or n outside
    0..MAX_VERTICES.
    """
    check_vertex_count(n)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(adj)


def compact_ids(g: Graph) -> tuple[int, ...] | None:
    """None when the vertex ids are exactly 0..n-1, so that each id is its
    own index; otherwise the ids in increasing order, so that index k
    stands for the k-th smallest id. Index-addressed state then has n slots
    however large the ids are, and index order is id order."""
    n = g.vertex_count
    if n == 0 or (min(g.vertices) == 0 and max(g.vertices) == n - 1):
        return None
    return tuple(sorted(g.vertices))


def clique_edges(vertices: Iterable[int]) -> list[Edge]:
    """Every pair of the given vertices as a (min, max) edge, in sorted order."""
    members = sorted(vertices)
    return [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]


def missing_clique_pair(g: Graph, vertices: Iterable[int]) -> Edge | None:
    """The first pair of the given vertices, in sorted order, that is not an
    edge of g; None when they form a clique."""
    members = sorted(vertices)
    for i, a in enumerate(members):
        nbrs = g.neighbors(a)
        for b in members[i + 1:]:
            if b not in nbrs:
                return (a, b)
    return None


def relabel_offset(g: Graph, offset: int) -> Graph:
    """Copy of g with every vertex id shifted by offset."""
    return Graph.from_data(
        (v + offset for v in g.vertices),
        ((u + offset, v + offset) for u, v in g.edges),
    )


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2 is shifted past g1's largest id."""
    offset = max(g1.vertices, default=-1) + 1
    shifted = relabel_offset(g2, offset)
    return Graph.from_data(
        list(g1.vertices) + list(shifted.vertices),
        list(g1.edges) + list(shifted.edges),
    )


def _require_contiguous(g: Graph) -> int:
    n = g.vertex_count
    if set(g.vertices) != set(range(n)):
        raise InputError("serialization requires contiguous vertex ids 0..n-1")
    return n


def serialize_edgelist(g: Graph) -> str:
    """Canonical edge-list text: 'n m' then one sorted 'u v' line per edge."""
    n = _require_contiguous(g)
    lines = [f"{n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _is_canonical(text: str) -> int:
    """The line count of text in the form serialize_edgelist writes: each
    line two runs of ASCII digits with one space between, and a '\n' at
    its end. 0 for any other text, except that a run of digits may be empty
    here: it puts ',,', '[,' or ',]' into a chunk of _parse_canonical, which
    json.loads refuses, so such text still goes line by line.

    The check runs on the ASCII bytes of the text, which bytes methods scan
    faster than str methods scan the text.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return 0
    # deleting the digits must leave one ' \n' per line and nothing else,
    # so the pairs that count finds must fill what is left
    rest = data.translate(None, b"0123456789")
    lines = rest.count(b" \n")
    return lines if 2 * lines == len(rest) and data.endswith(b"\n") else 0


def parse_edgelist(text: str) -> Graph:
    """Graph of edge-list text: an 'n m' line, then m 'u v' lines.

    Canonical text is scanned in chunks of whole lines, each read by one
    json.loads, with no str object per token, no list per line and no tuple
    per edge. Any other text, and canonical text with anything to report,
    goes line by line. Both give the same graph, or the same InputError.
    """
    lines = _is_canonical(text)
    if lines:
        return _parse_canonical(text, lines)
    return _parse_rows(text)


# Characters of canonical text per json.loads call in _parse_canonical,
# rounded up to a whole line. One json.loads over the whole text would hold
# a list of all 2m endpoints next to the graph; a chunk of this size holds
# the endpoints of a few thousand lines.
_SCAN_CHUNK = 1 << 16

_TO_COMMAS = str.maketrans(" \n", ",,")


def _parse_canonical(text: str, lines: int) -> Graph:
    # Anything _parse_rows would report (a token json refuses, such as an
    # empty run of digits, a leading zero or more than 4,300 digits, a wrong
    # edge count, too many vertices, an endpoint out of range or a loop)
    # hands the whole text to _parse_rows, so its message stays the only one.
    first = text.index("\n")
    try:
        n, m = json.loads("[" + text[:first].replace(" ", ",") + "]")
    except ValueError:
        return _parse_rows(text)
    if m != lines - 1 or n > MAX_VERTICES:
        return _parse_rows(text)
    ids = list(range(n))  # every endpoint becomes one of these n ints
    nbrs = [set() for _ in ids]
    start, size = first + 1, len(text)
    while start < size:
        end = text.index("\n", min(start + _SCAN_CHUNK, size) - 1) + 1
        try:
            ends = iter(json.loads("[" + text[start:end - 1].translate(_TO_COMMAS) + "]"))
            # adds in edge order, as build_graph makes them, so that every
            # set iterates in the same order
            for u, v in zip(ends, ends):
                nbrs[u].add(ids[v])
                nbrs[v].add(ids[u])
        except (ValueError, IndexError):  # a token json refuses, an endpoint >= n
            return _parse_rows(text)
        start = end
    if any(map(set.__contains__, nbrs, ids)):  # a loop (v, v) put v in its own set
        return _parse_rows(text)
    return Graph(dict(zip(ids, nbrs)))


def _parse_rows(text: str) -> Graph:
    """Edge-list text line by line, in one pass that stops at the first
    line at fault and names it by its 1-based number, blank lines counted."""
    rows: list[tuple[int, int]] = []
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            if not rows:
                break
            raise InputError(
                f"malformed edge-list input: line {number}: expected 2 values, found {len(tokens)}"
            )
        try:  # token is the first that int() refuses, also for more than 4,300 digits
            rows.append((int(token := tokens[0]), int(token := tokens[1])))
        except ValueError:
            shown = token if len(token) <= 40 else token[:37] + "..."
            raise InputError(
                f"malformed edge-list input: line {number}: {shown!r} is not an integer"
            ) from None
    if not rows:
        raise InputError("edge-list input must start with a 'n m' line")
    n, m = rows[0]
    if len(rows) - 1 != m:
        raise InputError(f"header declares {m} edges, found {len(rows) - 1}")
    return build_graph(n, rows[1:])


def serialize_structured(g: Graph) -> str:
    """Structured-text form: {"n": ..., "edges": [[u, v], ...]}."""
    n = _require_contiguous(g)
    payload = {"n": n, "edges": [list(e) for e in sorted(g.edges)]}
    return json.dumps(payload) + "\n"


def _json_int(value, what: str) -> int:
    # JSON true/false load as bool, a subclass of int, so test the exact type.
    if type(value) is not int:
        shown = json.dumps(value)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        raise TypeError(f"{what} must be a JSON integer, got {shown}")
    return value


def parse_structured(text: str) -> Graph:
    """Graph of {"n": ..., "edges": [[u, v], ...]}; n and every endpoint
    must be JSON integers (not floats, booleans or strings)."""
    try:
        payload = json.loads(text)
        n = _json_int(payload["n"], "n")
        edges = [
            (_json_int(a, "an edge endpoint"), _json_int(b, "an edge endpoint"))
            for a, b in payload["edges"]
        ]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed structured input: {exc}") from None
    return build_graph(n, edges)
