"""Backend selection for the bit kernels.

The compiled extension `_fastkern` (hand-written C) is used when it was
built and the graph fits in 64-bit rows (n <= 64); otherwise the
pure-Python twin `_purekern` takes over.  Setting PENTAPLANAR_KERNEL=pure
forces the fallback, which is how the benchmark and the parity tests
exercise both sides.  The backend is chosen once, when this module is
imported, and every kernel follows the same rule.  Both backends export
`edge_profile`, `paths3_per_edge` and `embedding_min_code`;
`paths3_between` checks a single vertex pair and always runs pure.
Every kernel reads n off what it is given: the number of adjacency rows,
or of rotations in a rotation system.

`edge_profile` gives, per edge, the 3-, 4- and 5-cycles through it.  A
k-cycle has k edges, so `cycle_totals` turns the profile into totals by
dividing each per-edge sum by k; it is the one place that does.
"""

from __future__ import annotations

import os

from . import _purekern

try:
    from . import _fastkern  # type: ignore[attr-defined]
except ImportError:
    _fastkern = None

_FAST_MAX_N = 64

_fast = None if os.environ.get("PENTAPLANAR_KERNEL", "auto").lower() == "pure" else _fastkern


def backend_name() -> str:
    return "pure" if _fast is None else "compiled"


def _pick(n: int):
    return _purekern if _fast is None or n > _FAST_MAX_N else _fast


def cycle_counts(rows: tuple[int, ...]) -> tuple[int, int, int]:
    """The numbers of 3-, 4- and 5-cycles."""
    return cycle_totals(edge_profile(rows))


def cycle_totals(profile: tuple[list[int], list[int], list[int]]) -> tuple[int, int, int]:
    """The numbers of 3-, 4- and 5-cycles from an `edge_profile`."""
    t3, p3, c5 = profile
    return sum(t3) // 3, sum(p3) // 4, sum(c5) // 5


def edge_profile(rows: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """(t3, p3, c5): per edge, in edge order, the 3-, 4- and 5-cycles
    through it."""
    return _pick(len(rows)).edge_profile(rows)


def c5_per_edge(rows: tuple[int, ...]) -> list[int]:
    return edge_profile(rows)[2]


def paths3_per_edge(rows: tuple[int, ...]) -> list[int]:
    return _pick(len(rows)).paths3_per_edge(rows)


def paths3_between(rows: tuple[int, ...], u: int, v: int) -> int:
    return _purekern.paths3_between(rows, u, v)


def embedding_min_code(rot: tuple[tuple[int, ...], ...]) -> bytes:
    """Canonical flat code of `rot` as `bytes`, one byte per degree or
    label, so n <= 256 (see `_purekern.embedding_min_code`).

    Precondition: `rot` is a valid, symmetric rotation system, as
    `enumeration.split_vertex` and `Embedding` produce: w is in v's rotation
    exactly when v is in w's.  Neither backend checks it in full, since
    enumeration calls this for every kept child, so a damaged system can
    get a code instead of a ValueError.
    """
    return _pick(len(rot)).embedding_min_code(rot)
