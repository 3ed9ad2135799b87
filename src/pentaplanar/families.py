"""The named extremal constructions and the exceptional catalog.

Labeling conventions are fixed so the emitted graph6 strings are stable:
cycle/path vertices come first (0..n-3), the two apexes last (n-2, n-1).
The double wheel family D_n keeps its apexes non-adjacent (joining them
would create a K5 minor); the near-extremal family E_n joins them.

A_11 and the four catalog graphs without explicit constructions are frozen
as canonical graph6 strings.  They were pinned by a discovery sweep over the
enumerated corpus:
each is the unique triangulation with its vertex count and pentagon count
that has no degree-4 vertex (`oracles.discover_catalog_graphs` reproduces the
sweep, and the test suite asserts the uniqueness on every run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .counting import g_formula
from .graphs import Graph, GraphError, parse_graph6

EXCEPTIONAL_VERTICES = (7, 8, 9, 9, 10, 11)
EXCEPTIONAL_C5 = (36, 60, 79, 80, 110, 144)

# Canonical graph6 of the six exceptional graphs (7..11 vertices); indices
# 1 and 5 are A_8 and A_11.
EXCEPTIONAL_CANONICAL = (
    "FBn^w",
    "G?]}~[",
    "H?U`}~n",
    "H?NA|^~",
    "I??^B]vvw",
    "J???~@nl}v_",
)

# Largest D_n / E_n built: n^2 / 8 bytes of rows, `construct --count` in seconds.
FAMILY_MAX_N = 1024


def build_D(n: int) -> Graph:
    """Cycle on n-2 vertices plus two non-adjacent apexes joined to all of it.

    A triangulation with 3n-6 edges; for n = 5 this degenerates to K5 minus
    the apex-apex edge, the unique 5-vertex maximal planar graph.
    """
    if n < 5:
        raise GraphError(f"D_n needs n >= 5, got {n}")
    k = n - 2
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k) for i in range(k)]
    edges += [(i, k + 1) for i in range(k)]
    return Graph(n, edges)


def build_E(n: int) -> Graph:
    """Path on n-2 vertices plus two adjacent apexes joined to all of it.

    A triangulation with 3n-6 edges and 2n^2-10n+6 pentagons; E_5 coincides
    with D_5 (both are K5 minus an edge).
    """
    if n < 5:
        raise GraphError(f"E_n needs n >= 5, got {n}")
    k = n - 2
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k) for i in range(k)]
    edges += [(i, k + 1) for i in range(k)]
    edges.append((k, k + 1))
    return Graph(n, edges)


def build_A(n: int) -> Graph:
    """The sporadic co-maximizers at n = 8 and n = 11.

    A_8 is built explicitly: triangle 0,1,2 with an apex on each side (3
    inside, 4 outside) and one degree-3 vertex 5,6,7 in each outer region,
    adjacent to the outer apex and two triangle vertices.  A_11 comes from
    the frozen catalog.
    """
    if n == 8:
        return Graph(
            8,
            [
                (0, 1), (1, 2), (0, 2),
                (3, 0), (3, 1), (3, 2),
                (4, 0), (4, 1), (4, 2),
                (5, 4), (5, 0), (5, 1),
                (6, 4), (6, 1), (6, 2),
                (7, 4), (7, 2), (7, 0),
            ],
        )
    if n == 11:
        return build_exceptional(5)
    raise GraphError(f"A_n is defined only for n in {{8, 11}}, got {n}")


def build_exceptional(index: int) -> Graph:
    """Catalog graph by index (vertex counts 7,8,9,9,10,11)."""
    if not (0 <= index < 6):
        raise GraphError(f"exceptional index must be 0..5, got {index}")
    return parse_graph6(EXCEPTIONAL_CANONICAL[index])


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic descriptor of a construction; expand() realizes the graph."""

    family: str                 # "D" | "E" | "A" | "EXC"
    n: int
    exc_index: int | None = None

    def __post_init__(self) -> None:
        if self.family in ("D", "E"):
            if not (5 <= self.n <= FAMILY_MAX_N):
                raise GraphError(
                    f"{self.family}_n needs 5 <= n <= {FAMILY_MAX_N}, got {self.n}"
                )
        elif self.family == "A":
            if self.n not in (8, 11):
                raise GraphError(f"A_n needs n in {{8, 11}}, got {self.n}")
        elif self.family == "EXC":
            if self.exc_index is None or not (0 <= self.exc_index < 6):
                raise GraphError(f"EXC needs index 0..5, got {self.exc_index}")
            if self.n != EXCEPTIONAL_VERTICES[self.exc_index]:
                raise GraphError(
                    f"EXC{self.exc_index} has {EXCEPTIONAL_VERTICES[self.exc_index]} "
                    f"vertices, not {self.n}"
                )
        else:
            raise GraphError(f"unknown family {self.family!r}")


def expand(spec: FamilySpec) -> Graph:
    if spec.family == "D":
        return build_D(spec.n)
    if spec.family == "E":
        return build_E(spec.n)
    if spec.family == "A":
        return build_A(spec.n)
    assert spec.exc_index is not None
    return build_exceptional(spec.exc_index)


def spec_from_name(name: str, n: int | None = None) -> FamilySpec:
    """CLI-facing family names: dn, en, a8, a11, exc0..exc5.  The fixed-size
    families accept an `n` only when it is their own vertex count."""
    key = name.lower()
    if key in ("dn", "en"):
        if n is None:
            raise GraphError(f"family {key} requires --n")
        return FamilySpec(key[0].upper(), n)
    if key in ("a8", "a11"):
        spec = FamilySpec("A", int(key[1:]))
    elif key.startswith("exc") and key[3:].isdigit() and int(key[3:]) < 6:
        idx = int(key[3:])
        spec = FamilySpec("EXC", EXCEPTIONAL_VERTICES[idx], idx)
    else:
        raise GraphError(f"unknown family name {name!r}")
    if n is not None and n != spec.n:
        raise GraphError(f"family {key} has {spec.n} vertices, not {n}")
    return spec


def expected_c5(spec: FamilySpec) -> int:
    """The documented pentagon count of a family member."""
    if spec.family == "D":
        return 6 if spec.n == 5 else g_formula(spec.n)
    if spec.family == "E":
        # Verified count of the path-plus-joined-apexes construction; holds
        # from n = 5 (where E_5 coincides with D_5).
        return 2 * spec.n * spec.n - 10 * spec.n + 6
    if spec.family == "A":
        return 60 if spec.n == 8 else 144
    assert spec.exc_index is not None
    return EXCEPTIONAL_C5[spec.exc_index]


def golden_catalog() -> list[dict]:
    """The shipped golden catalog: family, n, graph6, expected_c5 records."""
    text = resources.files("pentaplanar").joinpath("data/golden_catalog.json").read_text()
    return json.loads(text)
