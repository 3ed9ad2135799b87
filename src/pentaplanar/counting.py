"""Exact counters for the bounded quantities: k-cycles for k <= 5, length-3
paths between vertex pairs, and length-3 paths anchored on a triangle.

`count_cycles` is the production counter: `kernels.cycle_counts` sums the
per-edge 3-, 4- and 5-cycle counts of one `kernels.edge_profile` call.
`cycle_report` sums one profile the same way (`kernels.cycle_totals`) and
reads its per-edge and per-vertex C5 tallies off it.  The compiled kernel
(C, n <= 64) enumerates the paths of each edge over 64-bit rows in one
loop; the pure one counts them in closed form from one pass of bit-sliced
codegrees (see `_purekern`).  `count_paths3` checks one vertex pair and
always runs pure.  `count_cycles_bruteforce` re-counts by exhaustive ordered walk
enumeration and exists purely as an independent oracle; it must never
share code with the production path.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass

from . import kernels
from .graphs import SCHEMA_VERSION, Graph, GraphError


@dataclass(frozen=True)
class CycleCountReport:
    """Counts of 3-, 4- and 5-cycles plus per-vertex / per-edge C5 tallies."""

    n: int
    m: int
    c3: int
    c4: int
    c5: int
    per_vertex_c5: tuple[int, ...]
    per_edge_c5: tuple[tuple[int, int, int], ...]  # (u, v, count), u < v

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def count_cycles(g: Graph, k: int) -> int:
    """Number of unlabeled k-cycle subgraphs, k in {3, 4, 5}."""
    if k not in (3, 4, 5):
        raise GraphError(f"cycle length must be 3, 4 or 5, got {k}")
    return kernels.cycle_counts(g.bitrows)[k - 3]


def cycle_report(g: Graph) -> CycleCountReport:
    """Cycle counts for k = 3, 4, 5 plus the per-vertex and per-edge C5
    tallies, all from one `edge_profile` pass."""
    edges = g.edges()
    profile = kernels.edge_profile(g.bitrows)
    c3, c4, c5 = kernels.cycle_totals(profile)
    per_edge = profile[2]
    vertex_tally = [0] * g.n
    for (u, v), cnt in zip(edges, per_edge):
        vertex_tally[u] += cnt
        vertex_tally[v] += cnt
    # Each 5-cycle through a vertex uses exactly two of its edges.
    per_vertex = tuple(t // 2 for t in vertex_tally)
    return CycleCountReport(
        n=g.n,
        m=g.m,
        c3=c3,
        c4=c4,
        c5=c5,
        per_vertex_c5=per_vertex,
        per_edge_c5=tuple((u, v, cnt) for (u, v), cnt in zip(edges, per_edge)),
    )


def count_cycles_bruteforce(g: Graph, k: int) -> int:
    """Oracle counter: enumerate ordered simple closed walks, divide by 2k."""
    if k not in (3, 4, 5):
        raise GraphError(f"cycle length must be 3, 4 or 5, got {k}")
    n = g.n
    nbrs = g.neighbors
    rows = g.bitrows
    total = 0

    def extend(path: list[int], used: int) -> None:
        nonlocal total
        if len(path) == k:
            if rows[path[-1]] >> path[0] & 1:
                total += 1
            return
        for w in nbrs[path[-1]]:
            if not used >> w & 1:
                path.append(w)
                extend(path, used | 1 << w)
                path.pop()

    for start in range(n):
        extend([start], 1 << start)
    return total // (2 * k)


def count_paths3(g: Graph, u: int, v: int) -> int:
    """Number of length-3 paths u-x-y-v (all four vertices distinct)."""
    if u == v:
        raise GraphError(f"count_paths3 requires distinct endpoints, got {u} twice")
    g._check_vertex(u)
    g._check_vertex(v)
    return kernels.paths3_between(g.bitrows, u, v)


def _triangle_vertices(g: Graph, t: Iterable[int]) -> tuple[int, int, int]:
    verts = tuple(t)
    if len(verts) != 3 or len(set(verts)) != 3:
        raise GraphError(f"expected three distinct vertices, got {verts}")
    a, b, c = verts
    if not (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)):
        raise GraphError(f"{verts} is not a triangle of the graph")
    return a, b, c


def count_face_paths3(g: Graph, t: Iterable[int]) -> int:
    """Length-3 paths with both endpoints in the triangle t.

    Internal vertices are unrestricted; in particular the third triangle
    vertex may appear inside a path.
    """
    a, b, c = _triangle_vertices(g, t)
    return (
        count_paths3(g, a, b) + count_paths3(g, b, c) + count_paths3(g, a, c)
    )


def apex_exists(g: Graph, t: Iterable[int]) -> bool:
    """Is some vertex outside t adjacent to all three of its vertices?"""
    a, b, c = _triangle_vertices(g, t)
    mask = g.bitrows[a] & g.bitrows[b] & g.bitrows[c]
    mask &= ~(1 << a) & ~(1 << b) & ~(1 << c)
    return mask != 0


def g_formula(n: int) -> int:
    """The target count 2n^2 - 10n + 12, with the sporadic value 41 at n=7."""
    if n < 5:
        raise GraphError(f"g(n) is defined for n >= 5, got {n}")
    if n == 7:
        return 41
    return 2 * n * n - 10 * n + 12
