"""Immutable simple-graph value type and the primitives built on it.

Vertices are dense integers 0..n-1.  Adjacency is stored twice: as sorted
neighbor tuples (linear iteration) and as per-vertex bitmasks (constant-time
membership, bit-parallel intersection).  Bitmasks are plain Python ints, so
the same representation covers any n; the compiled kernel additionally packs
them into 64-bit words when n <= 64.

Graphs are values: a derived graph (induced subgraph, relabeling) is a fresh
object; an induced subgraph also returns its relabeling map.

Masks are walked inline, lowest bit first (`mask & -mask`), with no
generator per row or per step: `Graph` lists each row's neighbour tuple in
one such walk, and `_flood` grows its frontier the same way.  Rows given
as masks (`Graph._from_rows`, behind `parse_graph6` and the enumeration's
code decoder) fix n as their number; they get one pass for the range and
loops, and then have their symmetry checked inside the neighbour walk, so
the first pair that breaks it, rows in order and lowest neighbour first,
is the one reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# the "schema_version" of every JSON payload the package writes
SCHEMA_VERSION = 1


class GraphError(ValueError):
    """Raised on contract violations: bad vertices, non-edges, malformed input."""


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("n", "neighbors", "bitrows", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(rows)

    @classmethod
    def _from_rows(cls, rows: Sequence[int]) -> "Graph":
        """The graph on 0..n-1 with the n adjacency bit rows `rows`, checked
        on the masks: each row within 0..n-1, with no loop, and symmetric
        (checked in the walk that lists the neighbours)."""
        n = len(rows)
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise GraphError(f"row {v} has a neighbour out of range for n={n}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        g = cls.__new__(cls)
        g._set_rows(rows, check=True)
        return g

    def _set_rows(self, rows: Sequence[int], check: bool = False) -> None:
        """Store `rows` and list each row's neighbours in one walk over its
        bits, lowest first.  With `check`, the walk also raises on the first
        u in row v, rows in order, whose row u lacks v."""
        neighbors = []
        for v, row in enumerate(rows):
            bit_v = 1 << v
            nbrs = []
            while row:
                low = row & -row
                row ^= low
                u = low.bit_length() - 1
                if check and not rows[u] & bit_v:
                    raise GraphError(f"asymmetric rows: {u} in row {v}, {v} not in row {u}")
                nbrs.append(u)
            neighbors.append(tuple(nbrs))
        self.n = len(rows)
        self.bitrows: tuple[int, ...] = tuple(rows)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(neighbors)
        self._hash: int | None = None

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.bitrows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, in ascending lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.bitrows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.bitrows[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.bitrows))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def relabel(self, perm: dict[int, int] | list[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]; perm must be a bijection
        of the ints 0..n-1, else GraphError."""
        if isinstance(perm, dict):
            perm = [perm.get(v) for v in range(self.n)]
        if not all(type(p) is int for p in perm) or sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling is not a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.bitrows == other.bitrows

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.bitrows)))
        return self._hash  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _flood(rows: tuple[int, ...], seed: int, within: int) -> int:
    """The vertices of `within` reachable from the `seed` mask inside it."""
    reached = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= rows[low.bit_length() - 1]
        frontier = grow & within & ~reached
        reached |= frontier
    return reached


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs >= 3 vertices, got {n}")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


# ---------------------------------------------------------------------------
# Neighborhood / subgraph operations
# ---------------------------------------------------------------------------


def common_neighbors(g: Graph, u: int, v: int) -> frozenset[int]:
    """N(u) intersect N(v); never contains u or v."""
    if u == v:
        raise GraphError(f"common_neighbors requires distinct vertices, got {u} twice")
    g._check_vertex(u)
    g._check_vertex(v)
    mask = g.bitrows[u] & g.bitrows[v] & ~(1 << u) & ~(1 << v)
    return frozenset(_bits(mask))


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on s, relabeled to 0..|s|-1 in ascending vertex order.

    Returns the new graph and the old->new relabeling map.
    """
    verts = sorted(set(s))
    for v in verts:
        g._check_vertex(v)
    relabel = {v: i for i, v in enumerate(verts)}
    edges = [
        (relabel[u], relabel[v])
        for u in verts
        for v in g.neighbors[u]
        if u < v and v in relabel
    ]
    return Graph(len(verts), edges), relabel


@dataclass(frozen=True)
class PathForestResult:
    """Outcome of the path-forest test.

    ok: graph is acyclic with maximum degree <= 2.
    single_path: ok and the forest is exactly one path (so it is connected;
        the empty graph does not count as a single path).
    paths: on success, the maximal paths as vertex sequences (isolated
        vertices appear as length-1 sequences); None on failure.
    """

    ok: bool
    single_path: bool
    paths: tuple[tuple[int, ...], ...] | None

    def __bool__(self) -> bool:
        return self.ok


def is_path_forest(g: Graph) -> PathForestResult:
    """Test for a disjoint union of paths and decompose it on success."""
    if any(row.bit_count() > 2 for row in g.bitrows):
        return PathForestResult(False, False, None)
    seen = [False] * g.n
    paths: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start] or g.bitrows[start].bit_count() == 2:
            continue
        # Walk from an endpoint (degree <= 1) to the other end.
        walk = [start]
        seen[start] = True
        prev, cur = -1, start
        while True:
            nxt = [w for w in g.neighbors[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            if seen[cur]:
                return PathForestResult(False, False, None)
            seen[cur] = True
            walk.append(cur)
        paths.append(tuple(walk))
    if not all(seen):
        # Leftover vertices all have degree 2: a cycle.
        return PathForestResult(False, False, None)
    return PathForestResult(True, len(paths) == 1 and g.n > 0, tuple(paths))


# ---------------------------------------------------------------------------
# graph6 codec (byte-exact against the published format definition)
# ---------------------------------------------------------------------------

GRAPH6_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode as graph6: 6-bit chunks of the column-major upper triangle."""
    return _graph6(g.bitrows)


def _graph6(rows: Sequence[int]) -> str:
    """graph6 of the graph on 0..n-1 with the n adjacency bit rows `rows`:
    column v is bits 0..v-1 of rows[v], least vertex first, so edge uv with
    u < v is bit v(v-1)/2 + u of the body (`_graph6_text`)."""
    n = len(rows)
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    base = 0
    for v in range(1, n):
        column = rows[v] & ~(-1 << v)
        while column:
            low = column & -column
            p = base + low.bit_length() - 1
            body[p // 6] |= 32 >> p % 6
            column ^= low
        base += v
    return _graph6_text(n, body)


# adds the graph6 offset 63 to every 6-bit value of a body
_G6_OFFSET = bytes((b + 63) & 255 for b in range(256))
# the graph6 bytes 63..126, and each one's six bits, most significant first
_G6_BYTES = bytes(range(63, 127))
_G6_SIXBITS = [format(b, "06b") for b in range(64)]


def _graph6_text(n: int, body: bytearray) -> str:
    """graph6 line of size n whose body holds the upper-triangle bits, bit p
    of the column-major order as bit 5 - p % 6 of byte p // 6."""
    return (_encode_g6_size(n) + body.translate(_G6_OFFSET)).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional >>graph6<< header allowed).

    One `bytes.translate` finds any byte outside 63..126; the body's six-bit
    groups come from a 64-entry table of bit strings, read as one integer
    from which each column is shifted off in turn."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :].strip()
    if not s:
        raise GraphError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphError(f"non-ASCII character in graph6 string {s!r}") from None
    if data.translate(None, _G6_BYTES):
        raise GraphError(f"invalid graph6 byte in {s!r}")
    n, pos = _decode_g6_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise GraphError(
            f"graph6 body length {len(data) - pos} != expected {need} for n={n}"
        )
    # column v holds bits 0..v-1 of row v, least vertex first (see _graph6):
    # with the body read as one integer whose bit p is body bit p, column v
    # is the v bits from v(v-1)/2 up
    bits = "".join([_G6_SIXBITS[byte - 63] for byte in data[pos:]])
    body = int(bits[::-1], 2) if bits else 0
    rows = [0] * n
    for v in range(1, n):
        column = body & ~(-1 << v)
        body >>= v
        rows[v] = column
        bit_v = 1 << v
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= bit_v
            column ^= low
    return Graph._from_rows(rows)


# largest n the 4-byte graph6 size prefix can state; also the edge-list cap
G6_MAX_N = 258047


def _encode_g6_size(n: int) -> bytearray:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return bytearray([n + 63])
    if n <= G6_MAX_N:
        return bytearray(
            [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
        )
    raise GraphError(f"graph6 encoding for n={n} not supported here")


def _decode_g6_size(data: bytes) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 4 and data[1] != 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        return n, 4
    raise GraphError("graph6 size prefix too large or truncated")


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" then one "u v" line per edge, u < v, ascending
# ---------------------------------------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = _int_fields(head, lines[0])
    if n > G6_MAX_N:
        raise GraphError(f"edge-list header states n={n}, above the limit {G6_MAX_N}")
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        u, v = _int_fields(parts, ln)
        if u == v:
            raise GraphError(f"self-loop in edge line {ln!r}")
        edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def _int_fields(fields: list[str], line: str) -> tuple[int, int]:
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphError(f"expected two integers, got {line!r}") from None


def parse_graph_text(text: str, fmt: str = "auto") -> Graph:
    """Parse either supported text format; auto-detect by first line shape."""
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edge_list_text(text)
    if fmt != "auto":
        raise GraphError(f"unknown format {fmt!r}")
    stripped = text.strip()
    first = stripped.splitlines()[0] if stripped else ""
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edge_list_text(text)
    return parse_graph6(text)
