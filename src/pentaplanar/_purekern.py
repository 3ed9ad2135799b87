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

The compiled backend enumerates the paths u-a-b-c-v of each edge.  This one
counts them in closed form from bit-sliced codegrees (`_codegree_planes`;
see `c5_per_edge` for the derivation), which costs a few popcounts per edge
instead of one per (a, c) pair.  `paths3_per_edge` and `paths3_between`
keep the loop: their one level of nesting is already cheap.
"""

from __future__ import annotations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _codegree_planes(rows: tuple[int, ...], n: int) -> list[list[tuple[int, int]]]:
    """Bit-sliced codegrees W(u, x) = |N(u) & N(x)|, so W(u, u) = deg u.

    planes[u] lists the pairs (i, mask) where mask holds the vertices x
    whose W(u, x) has bit i set.  The row of each neighbor y of u is added
    into them by ripple carry, so the planes take about log2(max codegree)
    times the memory of the rows, never an n x n table.
    """
    out = []
    for u in range(n):
        planes: list[int] = []
        for y in _bits(rows[u]):
            carry = rows[y]
            for i, p in enumerate(planes):
                planes[i] = p ^ carry
                carry &= p
                if not carry:
                    break
            else:
                planes.append(carry)
        out.append(list(enumerate(planes)))
    return out


def _c5_edges(rows: tuple[int, ...], n: int, planes: list[list[tuple[int, int]]]):
    """The closed form of `c5_per_edge`, one edge at a time, in edge order."""
    deg = [r.bit_count() for r in rows]
    a3 = []
    for u in range(n):
        ru = rows[u]
        total = 0
        for i, p in planes[u]:
            total += (p & ru).bit_count() << i
        a3.append(total)
    for u in range(n):
        ru, pu, du, a3u = rows[u], planes[u], deg[u], a3[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            pv = planes[v]
            common = ru & rows[v]
            total = common.bit_count() * (5 - du - deg[v]) - a3u - a3[v]
            for w in _bits(common):
                total -= deg[w]
            for i, p in pu:
                for j, q in pv:
                    total += (p & q).bit_count() << (i + j)
            yield total


def cycle_counts(rows: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """Exact numbers of 3-, 4- and 5-cycles via per-edge path counting.

    Edge uv lies on |N(u) & N(v)| triangles, on p3(uv) 4-cycles and on
    c5(uv) 5-cycles (see `c5_per_edge`).  The walks u-x-y-v number
    sum_{y in N(v)} W(u, y); those with x = v number deg v, those with
    y = u deg u, and the one walk u-v-u-v has both, so
    p3(uv) = sum_{y in N(v)} W(u, y) - deg u - deg v + 1.
    """
    planes = _codegree_planes(rows, n)
    t3 = t4 = 0
    for u in range(n):
        ru, pu, du = rows[u], planes[u], rows[u].bit_count()
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            t3 += (ru & rv).bit_count()
            t4 += 1 - du - rv.bit_count()
            for i, p in pu:
                t4 += (p & rv).bit_count() << i
    t5 = sum(_c5_edges(rows, n, planes))
    return t3 // 3, t4 // 4, t5 // 5


def c5_per_edge(rows: tuple[int, ...], n: int) -> list[int]:
    """For each edge {u,v}: number of 5-cycles using that edge.

    The count is that of the paths u-a-b-c-v on five distinct vertices,
    in closed form over the codegrees W (Alon, Yuster & Zwick, "Finding and
    counting given length cycles", Algorithmica 17, 1997).  Write d(x) for
    deg x and t = W(u, v).

    The walks u-a-b-c-v number A4(u, v) = sum_b W(u, b) W(b, v), that is
    sum_{i,j} 2^(i+j) |P[u][i] & P[v][j]|, where P[u][i] is the mask of
    bit i of W(u, .).  A walk is a path unless one of five events holds
    (a != u, b != a, c != b and c != v hold in any walk, as the graph has
    no loops):
      E1  a = v: walks u-v-b-c-v, one per b in N(v), c in N(b) & N(v):
          a3(v) = sum_{x in N(v)} W(v, x), twice the triangles at v;
      E2  c = u: walks u-a-b-u-v, likewise a3(u);
      E3  a = c: walks u-a-b-a-v with a in N(u) & N(v), b in N(a):
          sum_{w in N(u) & N(v)} d(w);
      E4  b = u: walks u-a-u-c-v: d(u) t;
      E5  b = v: walks u-a-v-c-v: t d(v).
    Five pairs of events can hold together, each on t walks: E1 E2
    (u-v-b-u-v), E1 E4 (u-v-u-c-v), E2 E5 (u-a-v-u-v), E3 E4 (u-a-u-a-v)
    and E3 E5 (u-a-v-a-v).  The other five pairs force a loop (E1 E3,
    E1 E5, E2 E3, E2 E4) or u = v (E4 E5), and so does every triple, since
    each contains one of those pairs.  Inclusion-exclusion gives

      c5(uv) = A4(u, v) - a3(u) - a3(v) + t (5 - d(u) - d(v))
               - sum_{w in N(u) & N(v)} d(w).
    """
    return list(_c5_edges(rows, n, _codegree_planes(rows, n)))


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
