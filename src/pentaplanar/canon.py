"""Exact canonical labeling for arbitrary graphs.

Equitable refinement (split cells by neighbor counts into every cell until
stable) followed by individualization search: branch on each vertex of the
first non-singleton cell, recurse, and keep the lexicographically smallest
relabeled adjacency code over all leaves; of equal codes, the first leaf in
depth-first order wins.  Cell selection and refinement are
isomorphism-invariant, so equal canonical forms characterize isomorphism
exactly; nothing here is probabilistic.

Refinement keeps its rounds, because the cell order they produce decides
every form, and the forms are pinned (test digests, the benchmark goldens,
the CI sha256 of `verify`).  A round splits every cell of the round's
partition by its vertices' count vectors into that partition's cells, sorts
the pieces by vector and puts them in place of the cell.  What a round
touches follows the splitter refinement of McKay & Piperno (2014).  After a
round, the vertices of a cell agree on their counts into every cell of the
previous partition, so their vectors differ only in the counts into the
pieces that round made, and the count into the largest piece of a split
cell is the count into the cell minus those into its other pieces.  So a
round scatters from the smaller pieces only: it examines the cells with a
vertex next to one, and the vertices of such a cell with no neighbour in a
smaller piece share one vector.  A vector is one integer, with the count
into each cell in a field of its own, so the scatter adds, per neighbour in
a smaller piece p, the weight of p's field minus that of p's largest
sibling: the sum differs from the whole vector by a constant of the cell,
and is 0 for the vertices that share.  Where the smaller pieces hold more
vertices than the largest ones, as when an asymmetric graph falls apart into
single vertices, the round counts every open cell's vectors whole, which is
cheaper there; the first round at the root always does.  At a search node
the parent's partition is already stable, so the first round scatters from
the individualized vertex alone.

One shortcut tames the symmetric worst cases (complete and empty cells):
when the stable partition is uniform, i.e. every cell is internally complete
or empty and every cell pair is fully joined or fully separated, all
orderings within cells produce the same code, so the search stops there.
The stable partition is equitable, so one vertex per cell decides each cell
pair: its neighbours in another cell are none or all of that cell, and in
its own cell none or all but itself.

Automorphism pruning (McKay 1981; McKay & Piperno 2014) tames the rest,
such as the double wheels D_n with their 4(n - 2) automorphisms.  A leaf
whose code equals the first leaf's code or the best leaf's code yields an
automorphism: the vertex map between the two leaf orders.  At a search node
whose individualized vertices are fixed pointwise by some of the stored
automorphisms, a vertex of the target cell is skipped when it lies in the
orbit of an already explored sibling under the group those automorphisms
generate.  Such a group maps the node's partition to itself, so it maps the
subtree of the explored sibling u onto the subtree of the skipped vertex
gamma(u), leaf for leaf with equal codes.  Hence the first minimum leaf in
depth-first order of the unpruned search is never pruned: an equal code
would sit in the earlier subtree of u.  The returned order, not only the
form, is therefore that of the unpruned search.  No orbit work is done until
an automorphism fixing the node's prefix has been stored, so asymmetric
graphs pay only for remembering the first leaf.
"""

from __future__ import annotations

from .graphs import Graph, _graph6, _mask


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonically relabeled graph, encoded from the
    winning leaf's code, which is that graph's adjacency rows."""
    return _graph6(_canonical_leaf(g)[0])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


def _canonical_leaf(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """The winning leaf: its code (row i is the neighbor mask of position i
    in the relabeled graph) and its vertex order."""
    n = g.n
    if n == 0:
        return (), []
    rows, nbrs = g.bitrows, g.neighbors
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]

    first: tuple[tuple[int, ...], list[int]] | None = None  # (code, order)
    best = first
    autos: list[list[int]] = []  # automorphisms found, as vertex -> image

    def consider(order: list[int]) -> None:
        nonlocal first, best
        bit = [0] * n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        code = []
        for v in order:
            acc = 0
            for w in nbrs[v]:
                acc |= bit[w]
            code.append(acc)
        tcode = tuple(code)
        if best is None:
            first = best = (tcode, order)
            return
        for known_code, known in (first, best):
            if tcode == known_code:
                gamma = [0] * n
                for a, b in zip(known, order):
                    gamma[a] = b
                autos.append(gamma)
                return
        if tcode < best[0]:
            best = (tcode, order)

    def search(cells: list[list[int]], fixed: list[int]) -> None:
        cells = _refine(g, cells, fixed[-1] if fixed else None)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if target < 0:
            consider([c[0] for c in cells])
            return
        if _uniform(rows, cells):
            consider([v for c in cells for v in c])
            return
        cell = cells[target]
        explored: list[int] = []
        seen = 0  # automorphisms already folded into `orbit`
        orbit: list[int] | None = None  # union-find over the vertices
        for v in cell:
            for gamma in autos[seen:]:
                if all(gamma[x] == x for x in fixed):
                    if orbit is None:
                        orbit = list(range(n))
                    for x, y in enumerate(gamma):
                        rx, ry = _find(orbit, x), _find(orbit, y)
                        if rx != ry:
                            orbit[max(rx, ry)] = min(rx, ry)
            seen = len(autos)
            if orbit is not None:
                root = _find(orbit, v)
                if any(_find(orbit, u) == root for u in explored):
                    continue
            explored.append(v)
            rest = [w for w in cell if w != v]
            search(cells[:target] + [[v], rest] + cells[target + 1 :], fixed + [v])

    search(cells, [])
    assert best is not None
    return best


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find `parent`, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _refine(g: Graph, cells: list[list[int]], new: int | None = None) -> list[list[int]]:
    """Split cells by per-cell neighbor counts until the partition is stable.

    Each round splits every cell of the round's partition by its vertices'
    counts into that partition's cells and sorts the pieces in place by
    those count vectors (see the module docstring for what a round counts).
    `new` is the vertex a search node has just individualized: `cells` is
    then its parent's stable partition with `[new]` split off just before
    the rest of its cell, so the first round scatters from `[new]` alone.
    Without it, the first round counts into every cell.
    """
    nbrs, n = g.neighbors, g.n
    # a count vector as one integer: the count into the cell starting at
    # position s fills the b-bit field of weight[s], the first cell's on
    # top; counts stay below n < 2**b, so no field carries into the next
    # and integer order is the lexicographic order of the vectors
    b = max(n.bit_length(), 1)
    weight = [1 << i for i in range(b * (n - 1), -1, -b)]
    at: list[list[int] | None] = [None] * n  # start of a cell -> the cell
    where = [0] * n  # vertex -> start of its cell
    opens: set[int] = set()  # starts of the cells with two or more vertices
    s = 0
    for cell in cells:
        at[s] = cell
        for v in cell:
            where[v] = s
        if len(cell) > 1:
            opens.add(s)
        s += len(cell)
    # (start of a smaller piece, its weight minus its largest sibling's);
    # None: every vertex of every open cell counts its whole vector
    splitters: list[tuple[int, int]] | None = None
    if new is not None:
        s = where[new]
        splitters = [(s, weight[s] - weight[s + 1])]
    while True:
        key: dict[int, int] = {}
        if splitters is None:
            examined = opens
            for s in opens:
                for v in at[s]:
                    k = 0
                    for w in nbrs[v]:
                        k += weight[where[w]]
                    key[v] = k
        else:
            for p, delta in splitters:
                for w in at[p]:
                    for u in nbrs[w]:
                        key[u] = key.get(u, 0) + delta
            examined = opens.intersection([where[u] for u in key])
        splits = []
        for s in examined:
            buckets: dict[int, list[int]] = {}
            for v in at[s]:
                buckets.setdefault(key.get(v, 0), []).append(v)
            if len(buckets) > 1:
                splits.append((s, [buckets[k] for k in sorted(buckets)]))
        if not splits:
            return list(filter(None, at))
        excess = 0  # vertices in smaller pieces minus those in largest ones
        for s, pieces in splits:
            excess += len(at[s]) - 2 * max(map(len, pieces))
            opens.discard(s)
            for piece in pieces:
                at[s] = piece
                for v in piece:
                    where[v] = s
                if len(piece) > 1:
                    opens.add(s)
                s += len(piece)
        if excess > 0:
            splitters = None
            continue
        splitters = []
        for s, pieces in splits:
            largest = max(pieces, key=len)
            heavy = weight[where[largest[0]]]
            for piece in pieces:
                if piece is not largest:
                    s = where[piece[0]]
                    splitters.append((s, weight[s] - heavy))


def _uniform(rows: tuple[int, ...], cells: list[list[int]]) -> bool:
    """Whether every cell is complete or empty inside and every two cells
    are fully joined or fully separated.  The partition is equitable, so
    one vertex of a cell speaks for all of it."""
    masks = [_mask(c) for c in cells]
    for i, cell in enumerate(cells):
        v = cell[0]
        row = rows[v]
        inner = row & masks[i]
        if inner and inner != masks[i] ^ 1 << v:
            return False
        for mask in masks[i + 1 :]:
            cross = row & mask
            if cross and cross != mask:
                return False
    return True
