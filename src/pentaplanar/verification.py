"""The theorem harness: exhaustive confirmation of the pentagon maximum and
the extremal-graph characterization for small n, plus the lemma sweeps.

The theorem ranges over all planar graphs, while the exhaustive search
ranges over triangulations only.  A planar H on n >= 3 vertices is a
spanning subgraph of some triangulation T, and each 5-cycle of H is one of
T, so the maximum over triangulations is the maximum over planar graphs.
That c5(H + e) >= c5(H) holds for every graph, planar or not, so
`verify_monotonicity` tests the counter, not this reduction; its record
stays in the certificate.  Uniqueness needs one more fact: if c5(H) is the
maximum, T is a maximizer and every pentagon of T lies in H, so H = T as
soon as every edge of every maximizer lies on a 5-cycle.  `theorem_match`
includes that premise: `verify_theorem` requires a positive least per-edge
pentagon count on every maximizer it reports, so each certificate carries
it.  The tests also check it on D_n up to n = 60, beyond `verify`'s range.
The best non-extremal triangulation sits strictly below the maximum
(`second_best`).

Each class is checked once, by `_check`: its adjacency rows are built
once, and Lemmas 2 and 3 share one `paths3_per_edge` pass; when
`_check_chunk` also counts pentagons, it takes the path and pentagon
counts from one `kernels.edge_profile` pass.  Then one walk over the
edges lists them, tests Lemma 1 and copies the path counts into a flat
n x n table, and one walk over the darts fills the flat predecessor table
of the rotations, from which it reads the facial triangles in face-tracing
order (no face is traced or cached), each face's Lemma 3 count,
and Remark 4's rotation gaps.  Lemma 1 is checked by its first clause
alone, as every path forest satisfies the second by counting
(`verify_lemma1`): `_is_path_forest`, one degree pass and one flood from
the forest's endpoints, tests each common neighbourhood of three or more
vertices (any graph on at most two is a path forest).  Each sweep records
a graph in one `LemmaStats.add`: its item count, its slack range, and a
note for each violated item alone, in item order, so the stats are those
of one `LemmaStats.record` per item while no item that holds gets a note.

Every public sweep is a loop over `_check`.  `_check_level` runs it over a
whole level, for `verify_theorem` and for `verify --lemmas-only`, reading
each class's rotation system off its canonical code; `_check_variants`
runs it over `verify --variants`, embedding each variant first.  Both go
through `_fold`, which spreads the items over processes by
`enumeration._fan_out` and folds the results back in item order, counts
concatenated and stats joined by `LemmaStats.merge`, so no result depends
on the worker count.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import itemgetter

from . import kernels
from .canon import canonical_form
from .counting import g_formula
from .embeddings import Embedding, _is_connected, planar_embed
from .enumeration import MAX_N, _code_rotations, _fan_out, _rows, code_to_embedding, corpus_codes
from .families import FamilySpec, expand, expected_c5
from .graphs import SCHEMA_VERSION, Graph, _flood

MAX_VIOLATION_EXAMPLES = 5

_LEMMAS = ("lemma1", "lemma2", "lemma3", "remark4")
_VARIANT_LEMMAS = _LEMMAS[:3]
# The lowest and highest level that edge-deleted variants are drawn from.
_VARIANT_LEVELS = (5, 12)


def expected_max_c5(n: int) -> int:
    """The proven maximum: 6 at n=5, 41 at n=7, else 2n^2 - 10n + 12."""
    return expected_c5(FamilySpec("D", n))


def expected_family_labels(n: int) -> tuple[str, ...]:
    return ("A", "D") if n in (8, 11) else ("D",)


@dataclass
class LemmaStats:
    """One sweep: items checked, violations, the slack range, and the notes
    of the first MAX_VIOLATION_EXAMPLES violations.  `add` records one
    graph's items in aggregate, and `merge` joins two sweeps."""

    checked: int = 0
    violations: int = 0
    min_slack: int | None = None
    max_slack: int | None = None
    examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, slack: int | None = None, note: str | None = None) -> None:
        self.add(1, () if slack is None else (slack,), () if ok else (note,))

    def add(self, checked: int, slacks=(), notes=()) -> None:
        """Count `checked` items of one graph: `slacks` holds their slacks
        (or any values with the same least and greatest), and `notes` one
        note per violated item, in item order.  A None note counts its
        violation but keeps no example."""
        self.checked += checked
        if slacks:
            lo, hi = min(slacks), max(slacks)
            self.min_slack = lo if self.min_slack is None else min(self.min_slack, lo)
            self.max_slack = hi if self.max_slack is None else max(self.max_slack, hi)
        self.violations += len(notes)
        room = MAX_VIOLATION_EXAMPLES - len(self.examples)
        self.examples += [note for note in notes if note][:room]

    def merge(self, other: LemmaStats) -> None:
        """Fold in the stats of the sweep that continues this one."""
        self.checked += other.checked
        self.violations += other.violations
        slacks = {self.min_slack, self.max_slack, other.min_slack, other.max_slack}
        slacks.discard(None)
        if slacks:
            self.min_slack, self.max_slack = min(slacks), max(slacks)
        self.examples = (self.examples + other.examples)[:MAX_VIOLATION_EXAMPLES]

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExtremalEntry:
    graph6: str      # canonical form
    family: str      # "D" | "A" | "unknown"


@dataclass
class VerificationCertificate:
    # the fields are the JSON keys in order, which the CI sha256 pins fix
    n: int
    max_c5: int
    g_n: int
    expected_max: int
    theorem_match: bool
    extremal: tuple[ExtremalEntry, ...]
    second_best: int | None
    lemmas: dict[str, LemmaStats] | None = None

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def verify_theorem(
    n: int, workers: int = 1, include_lemmas: bool = False
) -> VerificationCertificate:
    """Exhaustively confirm the maximum and the extremal set at one n.

    theorem_match requires: the maximum over all n-vertex triangulations
    equals the proven value, the maximizers are exactly the expected
    families, and every edge of every maximizer lies on a pentagon (the
    uniqueness premise of the module docstring).  The family comparison
    decides uniqueness among triangulations; `second_best`, the greatest
    count other than the maximum, lies below it by its definition.
    """
    if not (5 <= n <= MAX_N):
        raise ValueError(f"verify_theorem supports 5 <= n <= {MAX_N}, got {n}")
    codes = corpus_codes(n, workers=workers)
    counts, lemmas = _check_level(n, _LEMMAS if include_lemmas else (), workers, True)
    max_c5 = max(counts)
    arg = [i for i, c in enumerate(counts) if c == max_c5]
    second = max((c for c in counts if c != max_c5), default=None)

    known = {canonical_form(expand(FamilySpec(label, n))): label
             for label in expected_family_labels(n)}
    maximizers = [code_to_embedding(codes[i]).graph for i in arg]
    extremal = []
    for g in maximizers:
        cf = canonical_form(g)
        extremal.append(ExtremalEntry(graph6=cf, family=known.get(cf, "unknown")))
    extremal.sort(key=lambda e: (e.family, e.graph6))

    labels = tuple(sorted(e.family for e in extremal))
    match = (
        max_c5 == expected_max_c5(n)
        and labels == tuple(sorted(expected_family_labels(n)))
        and all(min(kernels.edge_profile(g.bitrows)[2]) > 0 for g in maximizers)
    )
    return VerificationCertificate(
        n=n,
        max_c5=max_c5,
        g_n=g_formula(n),
        expected_max=expected_max_c5(n),
        second_best=second,
        extremal=tuple(extremal),
        theorem_match=match,
        lemmas=lemmas if include_lemmas else None,
    )


def _check_level(
    n: int, names: tuple[str, ...], workers: int, count: bool
) -> tuple[list[int], dict[str, LemmaStats]]:
    """Check every class of level n: the pentagon count per class when
    `count` is set (else none), and the named sweeps over the level."""
    codes = corpus_codes(n, workers=workers)
    check = partial(_check_chunk, names=names, count=count)
    return _fold(check, codes, len(codes), workers)


def _check_chunk(
    chunk, names: tuple[str, ...], count: bool
) -> tuple[list[int], dict[str, LemmaStats]]:
    """Pentagon count per class of a chunk of codes (if asked), and the
    named sweeps, each read off the class's rotation system.  With the
    count, one `edge_profile` pass per class gives it and the path counts
    of Lemmas 2 and 3; without it, `_check` counts the paths alone."""
    stats = {name: LemmaStats() for name in names}
    counts = []
    for code in chunk:
        rots = _code_rotations(code)
        rows = tuple(_rows(rots))
        p3 = None
        if count:
            profile = kernels.edge_profile(rows)
            p3 = profile[1]
            counts.append(kernels.cycle_totals(profile)[2])
        _check(stats, rows, rots, p3)
    return counts, stats


def _fold(check, items, size: int, workers: int) -> tuple[list[int], dict[str, LemmaStats]]:
    """`check` over the `size` items, spread by `enumeration._fan_out`, its
    results folded back in item order."""
    counts, stats = [], {}
    for more_counts, more in _fan_out(check, items, size, workers):
        counts += more_counts
        for name, part in more.items():
            stats.setdefault(name, LemmaStats()).merge(part)
    return counts, stats


# ---------------------------------------------------------------------------
# Lemma sweeps
# ---------------------------------------------------------------------------


def _check(stats: dict[str, LemmaStats], rows, rots=None, p3=None) -> None:
    """Record one graph, given by its adjacency rows and (for lemma3 and
    remark4) its rotation system, into every sweep named in `stats`.

    `p3` is the graph's `paths3_per_edge` list, counted here when not
    given.  One edge walk, in edge order (p3's), lists the edges, tests
    each common neighbourhood of three or more vertices by
    `_is_path_forest`, and copies p3 into a flat n x n table, both
    orientations of each edge, for Lemma 3; Lemma 2 takes its slack range
    off min(p3) and max(p3).
    One dart walk over the rotations, vertices descending, fills the flat
    table pred, where pred[v * n + w] is the neighbour before w around v.
    Each dart (v, w) with x = pred_v(w) is read when pred of every vertex
    above v is in, so it finds the triangle (v, w, x) at its least vertex
    v, where also v = pred_w(x) and w = pred_x(v), and Remark 4's gap when
    x and w are not adjacent.  Lemma 3 keeps its slack range as a running min/max.  Each
    sweep records the graph in one `LemmaStats.add`, and only violated
    items get a note, put back in item order (vertices ascending)."""
    # None for each sweep that `stats` does not name
    lemma1, lemma2, lemma3, remark4 = map(stats.get, _LEMMAS)
    n = len(rows)
    if n < 4:
        lemma3 = None
    if p3 is None and (lemma2 or lemma3):
        p3 = kernels.paths3_per_edge(rows)
    edges, notes = [], []
    paths = [0] * (n * n) if lemma3 else None
    k = 0
    for u in range(n):
        ru = rows[u]
        above = ru >> u + 1 << u + 1
        while above:
            low = above & -above
            above ^= low
            v = low.bit_length() - 1
            edges.append((u, v))
            if lemma1:
                common = ru & rows[v]
                if common.bit_count() > 2 and not _is_path_forest(rows, common):
                    notes.append(f"n={n} edge=({u},{v}): not a path forest")
            if paths is not None:
                paths[u * n + v] = paths[v * n + u] = p3[k]
                k += 1
    if lemma1:
        lemma1.add(len(edges), notes=notes)
    if lemma2 and n >= 3 and p3:
        bound = 2 * (n - 3)
        lo, hi = min(p3), max(p3)
        notes = [] if hi <= bound else [f"n={n} edge=({u},{v}) paths={cnt} > {bound}"
                                         for (u, v), cnt in zip(edges, p3) if cnt > bound]
        lemma2.add(len(p3), (bound - hi, bound - lo), notes)
    if not (lemma3 or remark4):
        return
    pred = [-1] * (n * n)
    faces, face_notes, gaps = 0, [], []
    with_apex, without = 4 * (n - 1), 4 * n - 9
    for v in range(n - 1, -1, -1):
        rot = rots[v]
        if not rot:
            continue
        rv, vn = rows[v], v * n
        x, gap = rot[-1], False
        for w in rot:
            pred[vn + w] = x
            if not rows[x] >> w & 1:
                gap = True
            if lemma3 and v < w and v < x and pred[w * n + x] == v and pred[x * n + v] == w:
                cnt = paths[vn + w] + paths[w * n + x] + paths[vn + x]
                bound = with_apex if rv & rows[w] & rows[x] else without
                slack = bound - cnt
                if not faces:
                    lo = hi = slack
                elif slack < lo:
                    lo = slack
                elif slack > hi:
                    hi = slack
                faces += 1
                if cnt > bound:
                    face_notes.append((v, f"n={n} face={(v, w, x)} paths={cnt} > {bound}"))
            x = w
        if gap:
            gaps.append(f"n={n} vertex={v} rotation gap")
    if lemma3:
        face_notes.sort(key=itemgetter(0))
        lemma3.add(faces, (lo, hi) if faces else (), [note for _, note in face_notes])
    if remark4:
        remark4.add(len(rots), notes=gaps[::-1])


def _sweep(names: tuple[str, ...], items) -> dict[str, LemmaStats]:
    """The named sweeps over (graph, rotation system or None) pairs."""
    stats = {name: LemmaStats() for name in names}
    for g, rots in items:
        _check(stats, g.bitrows, rots)
    return stats


def verify_lemma1(graphs) -> LemmaStats:
    """Common neighborhoods of edges in planar graphs are path forests, and
    the closed neighborhood triangulates iff the forest is one path.

    Works on adjacency bitmasks and embeds nothing, and checks the first
    clause alone, as every path forest satisfies the second.  For an edge
    uv let F be the subgraph induced on common = N(u) & N(v), with s
    vertices and, when it is a path forest, c components, hence s - c
    edges.  The closed set {u, v} + common induces the join K2 + F, with
    k = s + 2 vertices and m = (s - c) + 2s + 1 edges, a connected
    subgraph of the planar K2 + P_s.  Such a graph is a triangulation iff
    k >= 3 and m = 3k - 6 (on a connected simple planar graph with k >= 3
    every face has length >= 3, and Euler's formula makes 2m = 3f
    equivalent to m = 3k - 6).  As 3k - 6 = 3s, that is iff c = 1 (s = 0
    gives c = 0 and k = 2), that is iff F is one path, whether or not the
    host graph is planar.
    """
    return _sweep(("lemma1",), ((g, None) for g in graphs))["lemma1"]


def _is_path_forest(rows: tuple[int, ...], mask: int) -> bool:
    """Whether the subgraph induced on `mask` is a path forest (no vertex
    of degree > 2, and no cycle).

    One degree pass finds the forest's endpoints, the vertices of degree
    at most 1; with every degree at most 2, each component is a path or a
    cycle, and a path holds an endpoint while a cycle holds none, so the
    graph is a path forest iff one flood from the endpoints reaches all of
    `mask`.  The empty mask is the empty forest."""
    ends = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        d = (rows[low.bit_length() - 1] & mask).bit_count()
        if d > 2:
            return False
        if d < 2:
            ends |= low
    return _flood(rows, ends, mask) == mask


def verify_lemma2(graphs) -> LemmaStats:
    """At most 2(k-3) length-3 paths join the endpoints of any edge of a
    planar graph on k >= 3 vertices."""
    return _sweep(("lemma2",), ((g, None) for g in graphs))["lemma2"]


def verify_lemma3(embeddings) -> LemmaStats:
    """Per triangular face: at most 4(k-1) length-3 paths with endpoints in
    the face, and at most 4k-9 when no vertex is adjacent to all of it.

    The face count is the sum of the per-edge length-3 path counts over the
    face's three edges, taken from one `paths3_per_edge` pass per graph.
    """
    return _sweep(("lemma3",), ((e.graph, e.rotations) for e in embeddings))["lemma3"]


def verify_remark4(embeddings) -> LemmaStats:
    """Neighborhoods of triangulation vertices carry a Hamiltonian cycle:
    consecutive rotation neighbors must be adjacent."""
    return _sweep(("remark4",), ((e.graph, e.rotations) for e in embeddings))["remark4"]


# ---------------------------------------------------------------------------
# Edge-deleted variants and monotonicity
# ---------------------------------------------------------------------------


def edge_deleted_variants(count: int, seed: int) -> Iterator[Graph]:
    """Seed-pinned random connected planar subgraphs of corpus members,
    obtained by deleting one to three edges from a triangulation, one graph
    at a time."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(*_VARIANT_LEVELS)
        codes = corpus_codes(n)
        g = code_to_embedding(codes[rng.randrange(len(codes))]).graph
        edges = g.edges()
        drop = {rng.randrange(len(edges)) for _ in range(rng.randint(1, 3))}
        h = Graph(n, [e for i, e in enumerate(edges) if i not in drop])
        if _is_connected(h):
            made += 1
            yield h


def _check_variants(count: int, seed: int, workers: int) -> dict[str, LemmaStats]:
    """Lemmas 1-3 over `count` edge-deleted variants, each embedded first
    (Remark 4 is a triangulation property and does not apply).  The levels
    the variants are drawn from are grown first, with `workers`; then the
    main process draws the variants in seed order, and `_fold` checks them."""
    corpus_codes(_VARIANT_LEVELS[1], workers)
    return _fold(_check_variant_chunk, edge_deleted_variants(count, seed), count, workers)[1]


def _check_variant_chunk(graphs) -> tuple[list[int], dict[str, LemmaStats]]:
    """No counts, and Lemmas 1-3 over the graphs, each embedded first."""
    # each variant is embedded afresh rather than given its triangulation's
    # rotations restricted to the kept edges: a graph that lost an edge may
    # have other embeddings, so the two give other faces (28 196 Lemma 3
    # face checks against 28 026 over 3000 variants of seed 42), and the
    # recorded stats would change
    embs = map(planar_embed, graphs)
    return [], _sweep(_VARIANT_LEMMAS, ((e.graph, e.rotations) for e in embs))


@dataclass
class MonotonicityResult:
    samples: int
    edges_tested: int
    seed: int
    passed: bool
    counterexamples: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def verify_monotonicity(
    samples: int = 200, seed: int = 42, workers: int = 1
) -> MonotonicityResult:
    """Adding any planarity-preserving edge never decreases the pentagon
    count.  That holds for every graph, so this checks the counter, not the
    reduction to triangulations (the module docstring gives what that
    reduction rests on).

    The sampled triangulation's rotations, restricted to the kept edges,
    embed the base graph in the plane.  An absent edge whose endpoints lie
    on one facial walk of that embedding can be drawn inside the face, so
    the graph stays planar; every deleted triangulation edge is such an
    edge.  Only the other absent edges are embedded.  Each grown graph's
    pentagons are counted afresh, on the base rows with the new edge set;
    the difference c5(grown) - c5(base) is not taken in closed form (the
    paths u-a-b-c-v of the base), since that form can never go negative.
    The sampled levels (up to n = 11) are grown first, with `workers`.
    """
    corpus_codes(11, workers)
    rng = random.Random(seed)
    result = MonotonicityResult(samples=samples, edges_tested=0, seed=seed, passed=True)
    for _ in range(samples):
        n = rng.randint(5, 11)
        codes = corpus_codes(n)
        tri = code_to_embedding(codes[rng.randrange(len(codes))])
        keep = [e for e in tri.graph.edges() if rng.random() > 0.25]
        base = Graph(n, keep)
        rows = base.bitrows
        base_c5 = kernels.cycle_counts(rows)[2]
        cofacial = [0] * n
        for face in Embedding(base, [[w for w in rot if rows[v] >> w & 1]
                                     for v, rot in enumerate(tri.rotations)]).faces:
            walk = face.vertex_set()
            mask = sum(1 << w for w in walk)
            for w in walk:
                cofacial[w] |= mask
        for u in range(n):
            for v in range(u + 1, n):
                if rows[u] >> v & 1:
                    continue
                if not cofacial[u] >> v & 1 and not isinstance(
                    planar_embed(Graph(n, keep + [(u, v)])), Embedding
                ):
                    continue
                result.edges_tested += 1
                grown = list(rows)
                grown[u] |= 1 << v
                grown[v] |= 1 << u
                if kernels.cycle_counts(tuple(grown))[2] < base_c5:
                    result.passed = False
                    if len(result.counterexamples) < MAX_VIOLATION_EXAMPLES:
                        result.counterexamples.append(
                            f"n={n} base_m={base.m} add=({u},{v})"
                        )
    return result
