"""Backend selection for the bit kernels.

The compiled extension `_fastkern` (hand-written C) is used when it was
built and the graph fits in 64-bit rows (n <= 64); otherwise the
pure-Python twin `_purekern` takes over.  Setting PENTAPLANAR_KERNEL=pure
forces the fallback, which is how the benchmark and CI's pure/compiled
output diffs exercise both sides.  The backend is chosen once, when this
module is imported, and every kernel follows the same rule.  Both backends
export `edge_profile`, `paths3_per_edge` and `embedding_min_code`;
`paths3_between` checks a single vertex pair and always runs pure.

Precondition, the one input contract of every kernel on every backend:
valid input, off which each kernel reads n (the number of adjacency rows,
or of rotations).  Rows are valid when symmetric, loop-free and with every
bit below n, as `Graph` builds them; a rotation system is valid when w is
in v's rotation exactly when v is in w's, as `enumeration.split_vertex` and
`Embedding` produce it.  On valid input every backend returns equal values.
`embedding_min_code` raises ValueError in three cases: a disconnected
system; a walk that enters a vertex whose rotation lacks the vertex it came
from; and n above the backend's limit, 64 compiled and 256 pure (the
dispatcher sends n > 64 to pure).  Anything else is unspecified: no kernel
validates its input on the hot path, where enumeration calls
`embedding_min_code` for every kept child.

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
    label, so n <= 256 (see `_purekern.embedding_min_code`)."""
    return _pick(len(rot)).embedding_min_code(rot)
