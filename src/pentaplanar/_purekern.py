"""Pure-Python bit kernels: the fallback backend.

Mirrors the compiled extension `_fastkern` function for function; results
are identical objects (ints, lists, tuples).  Adjacency rows are arbitrary
precision Python ints, so this backend works for any n, whereas the compiled
one is limited to n <= 64.

Hot-loop conventions shared by both backends:
  * edge order is u < v ascending lexicographic, matching Graph.edges();
  * a 5-cycle through an edge {u,v} decomposes uniquely into u-a-b-c-v, so
    summing per-edge path counts overcounts each cycle exactly 5 times;
  * the flat embedding code is, per vertex in discovery order, its degree
    followed by its neighbor labels in rotation order starting from the
    entry neighbor.
"""

from __future__ import annotations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cycle_counts(rows: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """Exact numbers of 3-, 4- and 5-cycles via per-edge path counting."""
    t3 = t4 = t5 = 0
    for u in range(n):
        ru = rows[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            t3 += (ru & rv).bit_count()
            mask_u = ~(1 << u)
            mask_uv = mask_u & ~(1 << v)
            for a in _bits(ru & ~(1 << v)):
                ra = rows[a]
                t4 += (ra & rv & mask_u).bit_count()
                not_a = mask_uv & ~(1 << a)
                for c in _bits(rv & mask_u & ~(1 << a)):
                    t5 += (ra & rows[c] & not_a).bit_count()
    return t3 // 3, t4 // 4, t5 // 5


def c5_per_edge(rows: tuple[int, ...], n: int) -> list[int]:
    """For each edge {u,v}: number of 5-cycles using that edge."""
    out = []
    for u in range(n):
        ru = rows[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            mask_uv = ~(1 << u) & ~(1 << v)
            total = 0
            for a in _bits(ru & ~(1 << v)):
                ra = rows[a]
                not_a = mask_uv & ~(1 << a)
                for c in _bits(rv & ~(1 << u) & ~(1 << a)):
                    total += (ra & rows[c] & not_a).bit_count()
            out.append(total)
    return out


def paths3_between(rows: tuple[int, ...], n: int, u: int, v: int) -> int:
    """Number of paths u-x-y-v on four distinct vertices."""
    rv = rows[v]
    mask_u = ~(1 << u)
    total = 0
    for x in _bits(rows[u] & ~(1 << v)):
        total += (rows[x] & rv & mask_u).bit_count()
    return total


def paths3_per_edge(rows: tuple[int, ...], n: int) -> list[int]:
    """paths3_between for every edge, in edge order."""
    out = []
    for u in range(n):
        ru = rows[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            mask_u = ~(1 << u)
            total = 0
            for x in _bits(ru & ~(1 << v)):
                total += (rows[x] & rv & mask_u).bit_count()
            out.append(total)
    return out


def embedding_min_code(rot: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """Canonical flat code of a connected simple rotation system.

    Minimum, over every directed starting edge whose tail has minimum degree
    and both reading directions, of the breadth-first relabeling code.  Two
    sphere embeddings of 3-connected planar graphs get equal codes iff the
    graphs are isomorphic (rotation systems are unique up to reflection).

    Two rules skip work without changing the minimum:
      * every code from a start edge (su, sv) opens with the block
        (dmin, 1, 2, ..., dmin) of su, so its entry dmin + 1 is deg(sv);
        start edges whose sv does not have the least degree among all
        candidate heads cannot give the minimum and are not read at all;
      * each code is compared with the running best block by block while
        it is built, and abandoned as soon as it is larger (early abort).
        A code that ties the best is dropped as well.
    """
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    degs = [len(r) for r in rot]
    dmin = min(degs)
    starts = [(u, v) for u in range(n) if degs[u] == dmin for v in rot[u]]
    if not starts:
        raise ValueError("embedding code requires a connected graph")
    dsv = min(degs[v] for _, v in starts)
    best: list[int] | None = None
    for u, v in starts:
        if degs[v] != dsv:
            continue
        for rev in (False, True):
            code = _bfs_code(rot, n, u, v, rev, best)
            if code is not None:
                best = code
    return tuple(best)


def _bfs_code(
    rot: tuple[tuple[int, ...], ...],
    n: int,
    su: int,
    sv: int,
    rev: bool,
    best: list[int] | None,
) -> list[int] | None:
    """The relabeling code from start edge (su, sv), or None as soon as it
    is certain not to be smaller than `best`."""
    lab = [-1] * n
    lab[su], lab[sv] = 0, 1
    order = [su, sv]
    entry = [0] * n
    entry[su], entry[sv] = sv, su
    nxt = 2
    code: list[int] = []
    tie = best is not None
    for x in order:
        r = rot[x]
        pos = r.index(entry[x])
        start = len(code)
        code.append(len(r))
        for w in (r[pos::-1] + r[:pos:-1]) if rev else (r[pos:] + r[:pos]):
            lw = lab[w]
            if lw < 0:
                lab[w] = lw = nxt
                nxt += 1
                order.append(w)
                entry[w] = x
            code.append(lw)
        if tie:
            mine, theirs = code[start:], best[start : len(code)]
            if mine != theirs:
                if mine > theirs:
                    return None
                tie = False
    if nxt != n:
        raise ValueError("embedding code requires a connected graph")
    return None if tie else code
