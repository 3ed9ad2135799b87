"""Isomorph-free generation of planar triangulations (maximal planar graphs).

Level n+1 is produced from level n by vertex splitting, the inverse of edge
contraction: pick a vertex v and two positions i < j in its rotation; the
new vertex takes the rotation arc j..i, v keeps i..j, the two stay adjacent
and share exactly the arc endpoints.  Every triangulation on >= 5 vertices
contracts down to one on fewer vertices, so breadth-first splitting from K4
reaches every isomorphism class; duplicates are rejected through the
canonical embedding code (rotation systems of triangulations are unique up
to relabeling and reflection, which the code minimizes over).

Most children are rejected before their code is computed (the cheap half of
McKay's canonical construction path).  Call an edge contractible when its
endpoints have exactly two common neighbours, i.e. it lies in no separating
triangle; those two are the apexes of its two faces.  Let f(x, y) = (min,
max) of the endpoint degrees, and let the key of a contractible edge be its
f followed by the sorted degrees of its two apexes.  A child is kept only
if no contractible edge has a smaller key than its new edge (v, new).  No
class is lost:
  * every triangulation C on >= 5 vertices has a contractible edge; take
    one, e* = xy, with the smallest key;
  * contracting e* gives a triangulation P on one vertex fewer, whose class
    is in the previous level;
  * in that level's representative of P, the merged vertex sees the two
    apexes of e* at some positions i < j, and its split at (i, j) rebuilds
    C, up to reflection, with e* as the new edge and those apexes as the arc
    endpoints (the key does not care which endpoint of e* becomes v, nor
    which apex is which);
  * the key and contractibility are isomorphism invariants, so that child
    passes.
Ranking every edge, contractible or not, would lose classes: in a
25-vertex class built from two icosahedra sharing one vertex (see
`tests/test_enumeration.py`), the least f edge lies in a separating
triangle and would reject both splits that rebuild the class.
The new edge is itself contractible (its apexes are exactly the arc
endpoints), so the strict comparison never rejects it against itself.  The
apexes of an edge are read only when its f ties the new edge's.

Only one split of each orbit of the parent's automorphism group Aut(P) is
expanded, the least (v, i, j).  No class is lost either:
  * an automorphism sigma maps the split of v at the unordered pair of
    arcs to w_i, w_j onto the split of sigma(v) at the arcs to sigma(w_i),
    sigma(w_j), and the two children are isomorphic, by an isomorphism
    that maps new edge onto new edge (reversing orientation if sigma does);
  * the filter key and contractibility are isomorphism invariants, so the
    splits of one orbit all pass the filter or all fail it, and those that
    pass give one class.
Aut(P) is read off the parent's own code (`_automorphisms`): a relabeling
walk of `embedding_min_code` that reproduces the code is an automorphism,
and most parents have no other than the identity (970 of the 1 249 at
n = 11, 6 756 of the 7 595 at n = 12), so they do no orbit work.  A
vertex that some automorphism maps to a smaller one is skipped whole; a
split of any other vertex v is compared with its image under each
automorphism that fixes v, read off where it sends the two arc ends
(`_candidate_splits`).  Ties between equally small keys on edges of
different orbits still keep several children of one class, which the
code set merges.  The codes computed number 8 751 at n = 12
(7 595 classes and 1 156 such ties), 1 429 at n = 11 and 1 762 over
levels 5..11; the filter without the orbit pruning computes 10 545, 2 128
and 2 932, and f alone, without the apex degrees, 14 961, 2 860 and
3 812.

Most of those children are rejected on the parent alone, before any child
row is patched (103 257 of the 150 139 splits of the n = 11 level).  A
split of v changes adjacency only at v, the new vertex and the vertices of
N(v).  An edge xy with both endpoints outside N[v] = N(v) + v
is adjacent to neither v nor the new vertex, so in every child of v it
keeps its rows, hence its degrees, its common neighbours, its f and its
contractibility.  Let far(v) be the least f over the parent's contractible
edges outside N[v] (`_far_keys`).  A split of v whose rotation gap
g = j - i gives the new edge f = sorted(g + 2, deg v - g + 2) > far(v)
has a contractible edge of smaller f, hence of smaller key, in its child,
so the exact check would reject it; `_candidate_splits` skips all
deg v - g of them at once.  The threshold stays on f: the apexes of a far
edge may lie in N(v), whose degrees the split changes, and a split whose f
ties far(v) goes on to the exact check, which compares the apexes.  The
surviving splits go to the exact check (`_new_edge_is_minimal`), so the
threshold changes neither the kept splits nor the codes.  Far edges in a
separating triangle must stay out of far(v), as they stay out of the
exact check: two copies of the 25-vertex class above, joined by an
antiprism between two faces, make a 50-vertex class whose edges of least
f, (4, 6), are non-contractible, and one of them lies outside N[v] of
both splits that rebuild the class, whose new edges have f (4, 7).

A level is the sorted tuple of its classes' flat canonical codes (per
vertex, its degree and then its neighbours in rotation order), each a
`bytes` object of 7n - 12 entries as `embedding_min_code` returns it: at
n = 12 a class takes 105 B, where a tuple of ints took 616 B, and a batch
crosses the process pool as one short string per class.  All codes of a
level have the same length and every entry is below n <= 14, so sorted
bytes are in the order of the sorted tuples of ints.  `_code_rotations`
decodes a code into tuples of ints, the form `split_vertex`, `Embedding`
and the kernels take, and `_code_graph6` writes its graph6 line without
decoding it.  The codes are all that is kept.  The next level and the
per-class checks in `verification` read the rotation system or the bit
rows straight off a code, and the graph6 dump reads the code itself; an
`Embedding` (with its validated `Graph`) is built by `code_to_embedding`
only where a caller asks for one: `corpus`, and the classes
`verification` draws or reports.

One builder, `_grow`, turns a level into the next ones; `corpus_codes` uses
it to fill only the levels its process-lifetime cache (`_LEVELS`) lacks.
Each level is expanded through `_fan_out`, the package's one pool policy
(its docstring gives it), and each worker decodes its parents; the chunk
code sets are merged and sorted, so the result does not depend on the
worker count.

The oracles that re-derive or audit the levels live in `oracles`, which
shares none of this module's machinery.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Iterable, Iterator

from . import kernels
from ._purekern import _bfs_code
from .embeddings import Embedding
from .graphs import SCHEMA_VERSION, Graph, GraphError, _graph6_text

MIN_N = 4
MAX_N = 14          # hard cap: desk scale

# Tetrahedron rotation system, consistently oriented (the generation seed);
# its facial walks are (0,1,2), (0,2,3), (0,3,1), (1,3,2).
_K4_ROTATIONS: tuple[tuple[int, ...], ...] = (
    (1, 3, 2),
    (0, 2, 3),
    (0, 3, 1),
    (0, 1, 2),
)


@dataclass(frozen=True)
class EnumerationCertificate:
    """Outcome summary: class count plus a digest of the sorted canonical forms."""

    n: int
    count: int
    digest: str

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _code_rotations(code: bytes) -> tuple[tuple[int, ...], ...]:
    """The rotation system a flat code encodes: per vertex, its degree and
    then its neighbours in rotation order.  The code is unpacked into ints
    once, so that each rotation is a slice of one tuple."""
    flat = tuple(code)
    rotations = []
    pos = 0
    while pos < len(flat):
        d = flat[pos]
        rotations.append(flat[pos + 1 : pos + 1 + d])
        pos += 1 + d
    return tuple(rotations)


def _rows(rotations: tuple[tuple[int, ...], ...]) -> list[int]:
    """Adjacency bit rows of a rotation system."""
    rows = []
    for rot in rotations:
        row = 0
        for w in rot:
            row |= 1 << w
        rows.append(row)
    return rows


def code_to_embedding(code: bytes) -> Embedding:
    """Rebuild the canonically labeled embedding encoded by a flat code."""
    rotations = _code_rotations(code)
    return Embedding(Graph._from_rows(_rows(rotations)), rotations)


def split_vertex(
    rotations: tuple[tuple[int, ...], ...], v: int, i: int, j: int
) -> tuple[tuple[int, ...], ...]:
    """Inverse edge contraction at vertex v between rotation positions i < j.

    v keeps the arc i..j of its rotation, the new vertex (labeled n) takes
    the arc j..i; both gain each other, and the arc endpoints gain the new
    vertex next to v, oriented so that every face stays a triangle.
    """
    rot_v = rotations[v]
    new = len(rotations)
    wi, wj = rot_v[i], rot_v[j]
    arc_keep = rot_v[i : j + 1]
    arc_move = rot_v[j:] + rot_v[: i + 1]
    out = list(rotations)
    out[v] = arc_keep + (new,)
    for w in arc_move[1:-1]:
        r = out[w]
        idx = r.index(v)
        out[w] = r[:idx] + (new,) + r[idx + 1 :]
    r = out[wi]
    idx = r.index(v)
    out[wi] = r[:idx] + (v, new) + r[idx + 1 :]
    r = out[wj]
    idx = r.index(v)
    out[wj] = r[:idx] + (new, v) + r[idx + 1 :]
    out.append(arc_move + (v,))
    return tuple(out)


def _new_edge_is_minimal(
    rows: list[int], degs: list[int], v: int, rot_v: tuple[int, ...], i: int, j: int
) -> bool:
    """Canonical-edge filter for the split of v at positions i < j.

    True iff no contractible edge of the child has a smaller key than the
    new edge (v, new).  The key of xy is f(x, y) = (min, max) of the
    endpoint degrees, then the sorted degrees of the two common neighbours
    of x and y (the apexes of its faces); the new edge's apexes are the arc
    endpoints.  Works on the parent's adjacency bitmasks `rows` and degrees
    `degs`, patched to the child's, so the child's rotation system is built
    only if it passes.
    """
    n = len(rows)
    bit_v, bit_new = 1 << v, 1 << n
    wi, wj = rot_v[i], rot_v[j]
    keep = 0
    for w in rot_v[i : j + 1]:
        keep |= 1 << w
    inner = rows[v] ^ keep  # neighbours of v strictly inside the moving arc
    crows = rows + [inner | (1 << wi) | (1 << wj) | bit_v]
    crows[v] = keep | bit_new
    crows[wi] |= bit_new
    crows[wj] |= bit_new
    rest = inner
    while rest:
        low = rest & -rest
        rest ^= low
        crows[low.bit_length() - 1] ^= bit_v | bit_new
    d = len(rot_v)
    dv, dn = j - i + 2, d - j + i + 2
    cdegs = degs + [dn]
    cdegs[v] = dv
    cdegs[wi] += 1
    cdegs[wj] += 1
    a, b = (dv, dn) if dv <= dn else (dn, dv)
    p, q = cdegs[wi], cdegs[wj]
    apex = p << 8 | q if p <= q else q << 8 | p
    for x, dx in enumerate(cdegs):
        if dx > a:
            continue
        rx = rest = crows[x]
        while rest:
            bit = rest & -rest
            rest ^= bit
            y = bit.bit_length() - 1
            dy = cdegs[y]
            lo, hi = (dx, dy) if dx <= dy else (dy, dx)
            if lo > a or (lo == a and hi > b):
                continue
            common = rx & crows[y]
            if common.bit_count() != 2:
                continue
            if lo < a or hi < b:
                return False
            # f ties the new edge's: compare the apex degree pairs
            low = common & -common
            p, q = cdegs[low.bit_length() - 1], cdegs[(common ^ low).bit_length() - 1]
            if (p << 8 | q if p <= q else q << 8 | p) < apex:
                return False
    return True


# above every f key: degrees stay below 256
_NO_KEY = 1 << 16


def _far_keys(
    rotations: tuple[tuple[int, ...], ...], rows: list[int], degs: list[int]
) -> list[int]:
    """Per vertex v, the least f key over the contractible edges with both
    endpoints outside N[v] (`_NO_KEY` if there is none).  The key of
    f = (lo, hi) is lo << 8 | hi, which orders like f."""
    edges = []
    for x, rot in enumerate(rotations):
        rx, dx = rows[x], degs[x]
        for y in rot:
            if y > x and (rx & rows[y]).bit_count() == 2:
                dy = degs[y]
                edges.append((dx << 8 | dy if dx <= dy else dy << 8 | dx, 1 << x | 1 << y))
    edges.sort()
    return [next((key for key, ends in edges if not ends & (row | 1 << v)), _NO_KEY)
            for v, row in enumerate(rows)]


def _automorphisms(rotations: tuple[tuple[int, ...], ...], code: bytes) -> list[list[int]]:
    """The automorphisms other than the identity of the rotation system a
    canonical code encodes, each as sigma, where sigma[k] is the image of
    vertex k; sigma maps the rotation of k onto that of sigma[k], read
    forwards or backwards.  They are the relabeling walks of
    `embedding_min_code`, from the start edges that its min-degree tail and
    head rule admits (tails of the degree of vertex 0, heads of that of
    vertex 1), in both directions, that reproduce the code; the walk's
    visiting order is sigma.  Only a walk that matches every block is
    accepted.  A start is walked only if the degrees around its tail, read
    from its head, are those of vertex 0's neighbours 1..deg 0, as the
    code's second entries need; the identity, start (0, 1) forwards, is
    not walked."""
    target = list(code)
    degs = [len(r) for r in rotations]
    d0, d1 = degs[0], degs[1]
    ring = degs[1 : d0 + 1]
    auts = []
    for u, rot_u in enumerate(rotations):
        if degs[u] != d0:
            continue
        around = [degs[w] for w in rot_u]
        for pos, v in enumerate(rot_u):
            if degs[v] != d1:
                continue
            for rev in (False, True):
                if rev:
                    if around[pos::-1] + around[:pos:-1] != ring:
                        continue
                elif around[pos:] + around[:pos] != ring or u == pos == 0:
                    continue
                sigma = [u, v]
                if _bfs_code(rotations, sigma, rev, target) is target:
                    auts.append(sigma)
    return auts


def _candidate_splits(
    rotations: tuple[tuple[int, ...], ...],
    rows: list[int],
    degs: list[int],
    auts: list[list[int]],
) -> Iterator[tuple[int, int, int]]:
    """The splits (v, i, j) that no contractible edge outside N[v] rejects:
    those whose new edge's f key is at most far(v) (`_far_keys`), and of
    these the least of each orbit of the parent's automorphisms other than
    the identity, `auts` (`_automorphisms`).  A vertex that some sigma maps
    to a smaller one is skipped whole, and a split of v when some sigma
    that fixes v sends the arc ends rot_v[i] and rot_v[j] to positions
    whose sorted pair is below (i, j)."""
    for v, far in enumerate(_far_keys(rotations, rows, degs)):
        # the position maps of v's rotation under the sigmas that fix v
        rot_v, moves = rotations[v], []
        for sigma in auts:
            if sigma[v] < v:
                break
            if sigma[v] == v:
                moves.append([rot_v.index(sigma[w]) for w in rot_v])
        else:
            d = degs[v]
            for g in range(1, d):
                lo, hi = (g + 2, d - g + 2) if 2 * g <= d else (d - g + 2, g + 2)
                if lo << 8 | hi <= far:
                    for i in range(d - g):
                        j = i + g
                        for pos in moves:
                            p, q = pos[i], pos[j]
                            if (p, q) < (i, j) if p < q else (q, p) < (i, j):
                                break
                        else:
                            yield v, i, j


def _expand_batch(batch: Iterable[bytes]) -> set[bytes]:
    """Canonical codes of the children of a batch of parent codes,
    restricted to the least split of each orbit of the parent's
    automorphisms whose new edge passes the canonical-edge filter: the
    threshold of `_candidate_splits`, then the exact
    `_new_edge_is_minimal`."""
    codes: set[bytes] = set()
    for code in batch:
        rotations = _code_rotations(code)
        degs = [len(r) for r in rotations]
        rows = _rows(rotations)
        auts = _automorphisms(rotations, code)
        for v, i, j in _candidate_splits(rotations, rows, degs, auts):
            if _new_edge_is_minimal(rows, degs, v, rotations[v], i, j):
                child = split_vertex(rotations, v, i, j)
                codes.add(kernels.embedding_min_code(child))
    return codes


# Items per worker: a pool opens above _POOL_MIN, since one class takes
# about half a millisecond to check or expand and a pool of two about
# 30 ms to start and feed; each pool round holds at most _ROUND.
_POOL_MIN = 100
_ROUND = 1024


def _fan_out(fn, items, size: int, workers: int) -> Iterator:
    """Yield `fn`'s results over the `size` items in item order: the
    package's one rule for spreading work over processes.  With one worker,
    or at most _POOL_MIN items per worker, one call takes every item (an
    iterator streams).  Else one process pool, opened for this call, takes
    rounds of at most _ROUND items per worker, each cut into 4 * workers
    contiguous chunks of near-equal size, as the cost per item of a sorted
    level is uneven.  Each round is sent before the one ahead of it is
    read, so no worker waits for the slowest chunk of a round, and at most
    two rounds are held."""
    if workers == 1 or size <= _POOL_MIN * workers:
        yield fn(items)
        return
    items = iter(items)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # results of the rounds sent and not yet read; the empty first
        # entry lets each round go out before the one ahead of it is read
        rounds = [()]
        while rounds:
            if batch := list(islice(items, _ROUND * workers)):
                k = min(4 * workers, len(batch))
                cuts = [len(batch) * i // k for i in range(k + 1)]
                rounds.append(pool.map(fn, [batch[a:b] for a, b in zip(cuts, cuts[1:])]))
            yield from rounds.pop(0)


def _grow(level: tuple[bytes, ...], n: int, workers: int) -> Iterator[tuple[bytes, ...]]:
    """Yield the levels after `level` up to n vertices, each one the sorted
    codes built from the one before it; each chunk's codes are merged, and
    freed, as they arrive."""
    for _ in range(len(_code_rotations(level[0])), n):
        codes: set[bytes] = set()
        for part in _fan_out(_expand_batch, level, len(level), workers):
            codes |= part
        level = tuple(sorted(codes))
        yield level


_LEVELS: dict[int, tuple[bytes, ...]] = {}


def corpus_codes(n: int, workers: int = 1) -> tuple[bytes, ...]:
    """The canonical codes of all triangulation classes on n vertices,
    sorted.  Levels are cached for the process lifetime; the content is
    deterministic regardless of worker count."""
    if not (MIN_N <= n <= MAX_N):
        raise GraphError(f"triangulation enumeration supports {MIN_N} <= n <= {MAX_N}")
    if not _LEVELS:
        _LEVELS[MIN_N] = (kernels.embedding_min_code(_K4_ROTATIONS),)
    top = max(_LEVELS)
    for size, level in enumerate(_grow(_LEVELS[top], n, workers), top + 1):
        _LEVELS[size] = level
    return _LEVELS[n]


def corpus(n: int, workers: int = 1) -> tuple[Embedding, ...]:
    """All triangulation classes on n vertices, canonically labeled and
    sorted by canonical code.  The codes are cached (`corpus_codes`); the
    Embeddings are decoded afresh on each call."""
    return tuple(map(code_to_embedding, corpus_codes(n, workers=workers)))


def enumerate_triangulations(n: int, workers: int = 1) -> EnumerationCertificate:
    """The certificate of the n-vertex level: its class count and the digest
    of its sorted graph6 dump.  No class is decoded; `corpus(n)` is the
    route to the classes themselves."""
    return _certificate(n, corpus_graph6(n, workers=workers))


def _certificate(n: int, lines: list[str]) -> EnumerationCertificate:
    """The certificate of the level whose sorted graph6 dump is `lines`."""
    return EnumerationCertificate(n=n, count=len(lines), digest=_digest(lines))


def corpus_graph6(n: int, workers: int = 1) -> list[str]:
    """One graph6 line per class, sorted lexicographically (dump format),
    written straight from each code (`_code_graph6`)."""
    return sorted(_code_graph6(n, code) for code in corpus_codes(n, workers=workers))


def _code_graph6(n: int, code: bytes) -> str:
    """graph6 of the n-vertex class with flat code `code`: each edge wv with
    w < v, read off v's rotation, sets body bit v(v-1)/2 + w."""
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    pos = base = 0
    for v in range(n):
        end = pos + 1 + code[pos]
        for w in code[pos + 1 : end]:
            if w < v:
                p = base + w
                body[p // 6] |= 32 >> p % 6
        pos = end
        base += v
    return _graph6_text(n, body)


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()
