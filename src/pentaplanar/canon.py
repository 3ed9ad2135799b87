"""Exact canonical labeling for arbitrary graphs.

Equitable refinement (split cells by neighbor counts into every cell until
stable) followed by individualization search: branch on each vertex of the
first non-singleton cell, recurse, and keep the lexicographically smallest
relabeled adjacency code over all leaves; of equal codes, the first leaf in
depth-first order wins.  Cell selection and refinement are
isomorphism-invariant, so equal canonical forms characterize isomorphism
exactly; nothing here is probabilistic.

One shortcut tames the symmetric worst cases (complete and empty cells):
when the stable partition is uniform, i.e. every cell is internally complete
or empty and every cell pair is fully joined or fully separated, all
orderings within cells produce the same code, so the search stops there.

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

from .graphs import Graph, _graph6


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonically relabeled graph, encoded from the
    winning leaf's code, which is that graph's adjacency rows."""
    return _graph6(g.n, _canonical_leaf(g)[0])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


def canonical_order(g: Graph) -> list[int]:
    """Vertex order realizing the canonical labeling (position -> vertex)."""
    return _canonical_leaf(g)[1]


def _canonical_leaf(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """The winning leaf: its code (row i is the neighbor mask of position i
    in the relabeled graph) and its vertex order."""
    n = g.n
    if n == 0:
        return (), []
    rows = g.bitrows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]

    first: tuple[tuple[int, ...], list[int]] | None = None  # (code, order)
    best = first
    autos: list[list[int]] = []  # automorphisms found, as vertex -> image

    def consider(order: list[int]) -> None:
        nonlocal first, best
        inv = {v: i for i, v in enumerate(order)}
        code = []
        for v in order:
            acc = 0
            for w in g.neighbors[v]:
                acc |= 1 << inv[w]
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
        cells, masks = _refine(g.neighbors, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if target < 0:
            consider([c[0] for c in cells])
            return
        if _uniform(rows, cells, masks):
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


def _refine(
    nbrs: tuple[tuple[int, ...], ...], cells: list[list[int]]
) -> tuple[list[list[int]], list[int]]:
    """Split cells by per-cell neighbor counts until the partition is stable;
    return the stable cells and their vertex masks.

    A vertex's signature counts its neighbors into each cell of the round,
    read off the round's vertex -> cell index, so it costs its degree
    rather than one popcount per cell.
    """
    cell_of = [0] * len(nbrs)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        k = len(cells)
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = [0] * k
                for w in nbrs[v]:
                    sig[cell_of[w]] += 1
                buckets.setdefault(tuple(sig), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    out.append(buckets[sig])
        if not changed:
            return cells, [_mask(c) for c in cells]
        cells = out


def _uniform(rows: tuple[int, ...], cells: list[list[int]], masks: list[int]) -> bool:
    for i, cell in enumerate(cells):
        size = len(cell)
        inner = sum((rows[v] & masks[i]).bit_count() for v in cell)
        if inner not in (0, size * (size - 1)):
            return False
        for j in range(i + 1, len(cells)):
            cross = sum((rows[v] & masks[j]).bit_count() for v in cell)
            if cross not in (0, size * len(cells[j])):
                return False
    return True


def _mask(cell: list[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m
