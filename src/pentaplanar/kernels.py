"""Backend selection for the bit kernels.

The compiled extension `_fastkern` (hand-written C) is used when it was
built and the graph fits in 64-bit rows (n <= 64); otherwise the
pure-Python twin `_purekern` takes over.  Setting PENTAPLANAR_KERNEL=pure
forces the fallback, which is how the benchmark and the parity tests
exercise both sides.  The backend is chosen once, when this module is
imported, and every kernel follows the same rule.  `paths3_between` checks
a single vertex pair and always runs pure.
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


def backends() -> dict[str, object]:
    """All importable backends, keyed by name (for benchmarks and tests)."""
    out: dict[str, object] = {"pure": _purekern}
    if _fastkern is not None:
        out["compiled"] = _fastkern
    return out


def _pick(n: int):
    return _purekern if _fast is None or n > _FAST_MAX_N else _fast


def cycle_counts(rows: tuple[int, ...], n: int) -> tuple[int, int, int]:
    return _pick(n).cycle_counts(rows, n)


def edge_profile(rows: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    """(c5 per edge, paths3_per_edge) in one call."""
    return _pick(n).edge_profile(rows, n)


def c5_per_edge(rows: tuple[int, ...], n: int) -> list[int]:
    return edge_profile(rows, n)[0]


def paths3_per_edge(rows: tuple[int, ...], n: int) -> list[int]:
    return _pick(n).paths3_per_edge(rows, n)


def paths3_between(rows: tuple[int, ...], n: int, u: int, v: int) -> int:
    return _purekern.paths3_between(rows, n, u, v)


def embedding_min_code(rot: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """Canonical flat code of `rot` (see `_purekern.embedding_min_code`).

    Precondition: `rot` is a valid, symmetric rotation system, as
    `enumeration.split_vertex` and `Embedding` produce: w is in v's rotation
    exactly when v is in w's.  Neither backend checks it in full, since
    enumeration calls this for every kept child, so a damaged system can
    get a code instead of a ValueError.
    """
    return _pick(n).embedding_min_code(rot, n)
