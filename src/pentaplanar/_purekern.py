"""Pure-Python bit kernels: the fallback backend.

Covers the three kernels of the compiled extension `_fastkern`
(`edge_profile`, `paths3_per_edge` and `embedding_min_code`), with
identical results (lists, tuples, bytes), plus `paths3_between`, which the
dispatcher in `kernels` always runs here.  Adjacency rows are arbitrary
precision Python ints, so this backend works for any n (the embedding
code for n <= 256), whereas the compiled one is limited to n <= 64.

Hot-loop conventions shared by both backends:
  * edge order is u < v ascending lexicographic, matching Graph.edges();
  * `edge_profile` gives, per edge, the 3-, 4- and 5-cycles through it; a
    k-cycle has k edges, so the sum over the edges counts it k times
    (`kernels.cycle_totals` divides);
  * the flat embedding code is, per vertex in discovery order, its degree
    followed by its neighbor labels in rotation order starting from the
    entry neighbor.

The compiled backend enumerates the paths u-a-b-c-v and u-x-y-v of each
edge in one loop.  This one counts them in closed form from bit-sliced
codegrees (`_codegree_planes`; see `edge_profile` for the derivations),
which costs a few popcounts per edge instead of one per (a, c) pair.
`paths3_per_edge` and `paths3_between` keep the loop, walking each row's
bits inline as `edge_profile` does: their one level of nesting is already
cheap.  Both backends compute `embedding_min_code` by the same algorithm.
The input contract they share is stated in `kernels`.
"""

from __future__ import annotations


def _codegree_planes(rows: tuple[int, ...], nbrs: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Bit-sliced codegrees W(u, x) = |N(u) & N(x)| for x != u.

    planes[u] lists the pairs (i, mask) where mask holds the vertices
    x != u whose W(u, x) has bit i set.  The row of each neighbor y of u,
    less u itself, is added into them by ripple carry, so the planes take
    about log2(max codegree) times the memory of the rows, never an n x n
    table.  Leaving out x = u, whose W(u, u) = deg u is the largest entry
    of the row, saves a plane at most vertices.
    """
    out = []
    for u, nu in enumerate(nbrs):
        planes: list[int] = []
        keep = ~(1 << u)
        for y in nu:
            carry = rows[y] & keep
            for i, p in enumerate(planes):
                planes[i] = p ^ carry
                carry &= p
                if not carry:
                    break
            else:
                planes.append(carry)
        out.append(list(enumerate(planes)))
    return out


def edge_profile(rows: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Per edge, in edge order: the 3-, 4- and 5-cycles through it (t3, p3,
    c5), all from one `_codegree_planes` pass.  t3(uv) = |N(u) & N(v)|,
    and a 4-cycle through uv is a path u-x-y-v on four distinct vertices.

    The walks u-x-y-v number sum_{y in N(v)} W(u, y); those with x = v
    number deg v, those with y = u deg u, and the one walk u-v-u-v has
    both, so p3(uv) = sum_{y in N(v)} W(u, y) - deg u - deg v + 1.  The
    term y = u is W(u, u) = deg u, so over the planes P[u][i], which leave
    u out, p3(uv) = sum_i 2^i |P[u][i] & N(v)| - deg v + 1.

    c5(uv) is the number of paths u-a-b-c-v on five distinct vertices,
    in closed form over the codegrees W (Alon, Yuster & Zwick, "Finding and
    counting given length cycles", Algorithmica 17, 1997).  Write d(x) for
    deg x and t = W(u, v).

    The walks u-a-b-c-v number A4(u, v) = sum_b W(u, b) W(b, v), with
    W(b, b) = d(b).  A walk is a path unless one of five events holds
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

    The terms b = u and b = v of A4 are d(u) t and t d(v).  The rest,
    A4'(u, v), is sum_{i,j} 2^(i+j) |P[u][i] & P[v][j]| over the planes of
    `_codegree_planes`, where P[u][i] holds the x != u with bit i of
    W(u, x) set: neither P[u][i] holds u nor P[v][j] holds v.  So

      c5(uv) = A4'(u, v) - a3(u) - a3(v) + 5t - sum_{w in N(u) & N(v)} d(w),

    which the loop below evaluates.  The neighbour lists and a3 are built
    with plain loops, without a generator per row or per vertex: on the
    small graphs of a query stream their set-up cost is a visible share of
    the call.
    """
    nbrs: list[list[int]] = []
    for r in rows:
        nu = []
        while r:
            low = r & -r
            nu.append(low.bit_length() - 1)
            r ^= low
        nbrs.append(nu)
    deg = [len(nu) for nu in nbrs]
    planes = _codegree_planes(rows, nbrs)
    a3: list[int] = []
    for ru, pu in zip(rows, planes):
        a = 0
        for i, p in pu:
            a += (p & ru).bit_count() << i
        a3.append(a)
    t3: list[int] = []
    p3: list[int] = []
    c5: list[int] = []
    for u, nu in enumerate(nbrs):
        ru, pu, a3u = rows[u], planes[u], a3[u]
        for v in nu:
            if v < u:
                continue
            rv, pv = rows[v], planes[v]
            common = ru & rv
            t = common.bit_count()
            walks = 1 - deg[v]
            total = 5 * t - a3u - a3[v]
            while common:
                low = common & -common
                total -= deg[low.bit_length() - 1]
                common ^= low
            for i, p in pu:
                walks += (p & rv).bit_count() << i
                for j, q in pv:
                    total += (p & q).bit_count() << (i + j)
            t3.append(t)
            p3.append(walks)
            c5.append(total)
    return t3, p3, c5


def paths3_between(rows: tuple[int, ...], u: int, v: int) -> int:
    """Number of paths u-x-y-v on four distinct vertices."""
    rv = rows[v] & ~(1 << u)
    xs = rows[u] & ~(1 << v)
    total = 0
    while xs:
        low = xs & -xs
        total += (rows[low.bit_length() - 1] & rv).bit_count()
        xs ^= low
    return total


def paths3_per_edge(rows: tuple[int, ...]) -> list[int]:
    """paths3_between for every edge, in edge order.  For a caller that
    needs no pentagon count this loop is as cheap as the closed form of
    `edge_profile`, and skips its c5 plane products."""
    out = []
    for u, ru in enumerate(rows):
        vs = ru >> (u + 1) << (u + 1)
        while vs:
            low_v = vs & -vs
            vs ^= low_v
            rv = rows[low_v.bit_length() - 1] & ~(1 << u)
            xs = ru ^ low_v
            total = 0
            while xs:
                low = xs & -xs
                total += (rows[low.bit_length() - 1] & rv).bit_count()
                xs ^= low
            out.append(total)
    return out


def embedding_min_code(rot: tuple[tuple[int, ...], ...]) -> bytes:
    """Canonical flat code of a connected simple rotation system, as
    `bytes`: one byte per entry, so n <= 256 (every degree and label is
    then at most 255); a larger n raises ValueError.

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
        A code that ties the best leaves it as it is.
    """
    n = len(rot)
    if n > 256:
        raise ValueError(f"embedding code needs n <= 256, got {n}")
    if n == 0:
        return b""
    if n == 1:
        return b"\x00"
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
            code = _bfs_code(rot, [u, v], rev, best)
            if code is not None:
                best = code
    return bytes(best)


def _bfs_code(
    rot: tuple[tuple[int, ...], ...],
    order: list[int],
    rev: bool,
    best: list[int] | None,
) -> list[int] | None:
    """The relabeling code from the start edge order = [su, sv]: the walk
    appends each vertex to `order` as it labels it, so that order[k] gets
    label k.  Returns None as soon as the code is certain to be larger than
    `best`, and `best` itself when the code equals it."""
    su, sv = order
    n = len(rot)
    lab = [-1] * n
    lab[su], lab[sv] = 0, 1
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
    return best if tie else code
