import json
import random

import pytest

from pentaplanar import enumeration, kernels
from pentaplanar.canon import canonical_form
from pentaplanar.cli import main
from pentaplanar.counting import apex_exists, count_cycles, count_face_paths3
from pentaplanar.embeddings import (
    Embedding,
    is_triangulation,
    planar_embed,
    triangular_faces,
)
from pentaplanar.enumeration import _code_rotations, _rows, corpus, corpus_codes
from pentaplanar.families import build_D
from pentaplanar.graphs import (
    Graph,
    _bits,
    common_neighbors,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_path_forest,
)
from pentaplanar.verification import (
    MAX_VIOLATION_EXAMPLES,
    LemmaStats,
    _LEMMAS,
    _check_chunk,
    _check_level,
    _check_variant_chunk,
    _check_variants,
    _is_path_forest,
    _sweep,
    edge_deleted_variants,
    expected_family_labels,
    expected_max_c5,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_monotonicity,
    verify_remark4,
    verify_theorem,
)

from .test_kernels import _c5_per_edge_reference


def test_expected_values():
    assert expected_max_c5(5) == 6
    assert expected_max_c5(7) == 41
    assert expected_max_c5(12) == 180
    assert expected_family_labels(8) == ("A", "D")
    assert expected_family_labels(9) == ("D",)


@pytest.mark.parametrize(
    "n,max_c5,families",
    [(5, 6, ["D"]), (6, 24, ["D"]), (7, 41, ["D"]), (8, 60, ["A", "D"]),
     (9, 84, ["D"])],
)
def test_verify_theorem_small(n, max_c5, families):
    cert = verify_theorem(n)
    assert cert.theorem_match
    assert cert.max_c5 == max_c5
    assert [e.family for e in cert.extremal] == families
    if cert.second_best is not None:
        assert cert.second_best < cert.max_c5


@pytest.mark.parametrize("n", [4, 15])
def test_verify_theorem_rejects_n_outside_its_range(n):
    with pytest.raises(ValueError, match="5 <= n <= 14"):
        verify_theorem(n)


def test_every_edge_of_every_maximizer_lies_on_a_pentagon():
    """The uniqueness premise, beyond verify's range: the least per-edge c5
    is positive on D_n for n = 12..60.  verify_theorem checks it on every
    maximizer it reports, as part of theorem_match."""
    least = {n: min(kernels.edge_profile(build_D(n).bitrows)[2]) for n in range(12, 61)}
    assert all(c5 > 0 for c5 in least.values()), least


def _move_one_edge_c5(monkeypatch, target: Graph) -> list[list[int]]:
    """Wrap kernels.edge_profile so that, on the rows of a graph isomorphic
    to `target` only, the pentagons through the first edge are moved onto
    the second: the graph's total stays, but its first edge then lies on no
    pentagon.  Returns the list of the moved c5 lists, one per call moved."""
    form = canonical_form(target)
    profile = kernels.edge_profile
    moved_profiles = []

    def moved(rows):
        t3, p3, c5 = profile(rows)
        if len(rows) == target.n and canonical_form(Graph._from_rows(rows)) == form:
            c5 = [0, c5[0] + c5[1], *c5[2:]]
            moved_profiles.append(c5)
        return t3, p3, c5

    monkeypatch.setattr(kernels, "edge_profile", moved)
    return moved_profiles


def test_theorem_match_requires_every_maximizer_edge_on_a_pentagon(monkeypatch, capsys):
    """A maximizer with an edge on no pentagon fails the certificate, though
    its total, and so the maximum, stays; the same edit on a class below the
    maximum changes nothing."""
    below = next(e.graph for e in corpus(8) if kernels.cycle_counts(e.graph.bitrows)[2] < 60)
    with monkeypatch.context() as m:
        hits = _move_one_edge_c5(m, below)
        assert verify_theorem(8).theorem_match and hits
    hits = _move_one_edge_c5(monkeypatch, build_D(8))
    cert = verify_theorem(8)
    assert hits
    assert cert.max_c5 == 60 and sorted(e.family for e in cert.extremal) == ["A", "D"]
    assert not cert.theorem_match
    assert main(["verify", "--n", "8", "--workers", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_certificate_json_schema():
    cert = verify_theorem(6, include_lemmas=True)
    payload = json.loads(cert.to_json())
    assert payload["schema_version"] == 1
    for key in ("n", "max_c5", "g_n", "theorem_match", "extremal", "second_best",
                "lemmas"):
        assert key in payload
    assert payload["extremal"][0].keys() == {"graph6", "family"}
    assert set(payload["lemmas"]) >= {"lemma1", "lemma2", "lemma3"}
    for stats in payload["lemmas"].values():
        assert stats["violations"] == 0


def test_lemma1_direct_example():
    # double-wheel edge {apex, cycle vertex}: common neighborhood is two
    # isolated vertices, a path forest but not a single path, and the closed
    # set does not triangulate
    d8 = build_D(8)
    apex, rim = 6, 0
    common = common_neighbors(d8, apex, rim)
    sub, _ = induced_subgraph(d8, common)
    pf = is_path_forest(sub)
    assert pf.ok and not pf.single_path and sub.m == 0
    stats = verify_lemma1([d8])
    assert stats.violations == 0


def test_lemma2_bounds_on_corpus():
    stats = verify_lemma2([e.graph for e in corpus(7)])
    assert stats.violations == 0
    assert stats.min_slack is not None and stats.min_slack >= 0
    # K4 attains the bound 2(k-3)
    k4 = complete_graph(4)
    stats = verify_lemma2([k4])
    assert stats.min_slack == 0


def test_lemma2_d12_edge():
    d12 = build_D(12)
    from pentaplanar.counting import count_paths3

    assert count_paths3(d12, 0, 1) <= 2 * (12 - 3)


def test_lemma3_bounds_on_corpus():
    stats = verify_lemma3(corpus(7))
    assert stats.violations == 0
    k4 = planar_embed(complete_graph(4))
    assert verify_lemma3([k4]).violations == 0


def test_remark4_on_corpus():
    stats = verify_remark4(corpus(8))
    assert stats.checked == 14 * 8
    assert stats.violations == 0


def test_remark4_exhaustive_to_n12():
    for n in (11, 12):
        assert verify_remark4(corpus(n)).violations == 0


def test_lemma_suites_on_edge_deleted_variants():
    variants = list(edge_deleted_variants(60, seed=11))
    assert len(variants) == 60
    embs = []
    for g in variants:
        e = planar_embed(g)
        assert isinstance(e, Embedding)
        embs.append(e)
    assert verify_lemma1(variants).violations == 0
    assert verify_lemma2(variants).violations == 0
    assert verify_lemma3(embs).violations == 0


def test_variants_are_seed_pinned():
    def edges(seed):
        return [g.edges() for g in edge_deleted_variants(25, seed=seed)]

    assert edges(5) == edges(5) != edges(6)


def test_monotonicity_small_run():
    res = verify_monotonicity(samples=30, seed=42)
    assert res.passed and not res.counterexamples
    payload = res.to_json_dict()
    assert payload["seed"] == 42 and payload["passed"]


def _falling_cycle_counts(rows):
    """A broken counter: minus the edge count as the pentagon count, so
    that every added edge lowers it."""
    return 0, 0, -sum(row.bit_count() for row in rows) // 2


def test_monotonicity_reports_a_falling_count(monkeypatch):
    monkeypatch.setattr(kernels, "cycle_counts", _falling_cycle_counts)
    res = verify_monotonicity(samples=30, seed=42)
    assert not res.passed and res.edges_tested == 297
    assert len(res.counterexamples) == MAX_VIOLATION_EXAMPLES
    assert res.counterexamples[0] == "n=10 base_m=14 add=(0,1)"


def _edges_tested_reference(samples: int, seed: int) -> int:
    """The edge additions `verify_monotonicity` tests, found by embedding
    every added edge, with no planarity inherited from the triangulation."""
    rng = random.Random(seed)
    tested = 0
    for _ in range(samples):
        n = rng.randint(5, 11)
        classes = corpus(n)
        g = classes[rng.randrange(len(classes))].graph
        keep = [e for e in g.edges() if rng.random() > 0.25]
        present = set(keep)
        tested += sum(
            isinstance(planar_embed(Graph(n, keep + [(u, v)])), Embedding)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in present
        )
    return tested


def test_monotonicity_tests_the_planar_additions():
    res = verify_monotonicity(samples=60, seed=42)
    assert res.edges_tested == _edges_tested_reference(60, seed=42)


def test_readding_deleted_edge_restores_count():
    d8 = build_D(8)
    edges = d8.edges()
    removed = edges[3]
    smaller = Graph(8, [e for e in edges if e != removed])
    assert count_cycles(smaller, 5) < 60
    assert count_cycles(Graph(8, smaller.edges() + [removed]), 5) == 60


def test_workers_do_not_change_certificates():
    a = verify_theorem(8, workers=1).to_json_dict()
    b = verify_theorem(8, workers=4).to_json_dict()
    assert a == b
    # the pooled chunks, merged, equal the serial lemma sweeps
    for n in (8, 9, 10):
        a = verify_theorem(n, workers=1, include_lemmas=True).to_json_dict()
        b = verify_theorem(n, workers=2, include_lemmas=True).to_json_dict()
        assert a == b


def test_quadratic_difference_identities():
    # g(n) - g(n-1) is 4(n-3) away from the sporadic n=7,8 steps
    from pentaplanar.counting import g_formula

    assert g_formula(7) - g_formula(6) == 17
    assert g_formula(8) - g_formula(7) == 19
    for n in (6, 9, 10, 11, 12):
        assert g_formula(n) - g_formula(n - 1) == 4 * (n - 3)


def test_max_count_steps_match_quadratic():
    # the exhaustive maxima step exactly like the target quadratic from n=7 on
    expected = {5: 6, 6: 24, 7: 41, 8: 60, 9: 84, 10: 112, 11: 144, 12: 180}
    for n in range(7, 13):
        step = expected[n] - expected[n - 1]
        if n == 7:
            assert step == 17
        elif n == 8:
            assert step == 19
        else:
            assert step == 4 * (n - 3)


def test_n9_corpus_contains_the_79_and_80_classes():
    counts = sorted(count_cycles(e.graph, 5) for e in corpus(9))
    assert 79 in counts and 80 in counts


# ---------------------------------------------------------------------------
# Reference routes for the bitmask lemma sweeps
# ---------------------------------------------------------------------------


def _lemma1_reference(graphs) -> LemmaStats:
    """Lemma 1 per edge from explicit subgraphs and a planarity embedding."""
    stats = LemmaStats()
    for g in graphs:
        for u, v in g.edges():
            common = common_neighbors(g, u, v)
            sub, _ = induced_subgraph(g, common)
            pf = is_path_forest(sub)
            if not pf.ok:
                stats.record(False, note=f"n={g.n} edge=({u},{v}): not a path forest")
                continue
            closed, _ = induced_subgraph(g, set(common) | {u, v})
            emb = planar_embed(closed)
            tri = isinstance(emb, Embedding) and is_triangulation(emb)
            stats.record(
                tri == pf.single_path,
                note=f"n={g.n} edge=({u},{v}): triangulation={tri} "
                f"single_path={pf.single_path}",
            )
    return stats


def _lemma3_reference(embeddings) -> LemmaStats:
    """Lemma 3 per face from pairwise path counts and the apex test."""
    stats = LemmaStats()
    for emb in embeddings:
        g = emb.graph
        k = g.n
        if k < 4:
            continue
        for face in triangular_faces(emb):
            cnt = count_face_paths3(g, face.boundary)
            bound = 4 * (k - 1) if apex_exists(g, face.boundary) else 4 * k - 9
            stats.record(
                cnt <= bound,
                slack=bound - cnt,
                note=f"n={k} face={face.boundary} paths={cnt} > {bound}",
            )
    return stats


def _random_graphs(count: int, seed: int) -> list[Graph]:
    """G(n, p) with n in 2..11 and p uniform, most of them non-planar."""
    rng = random.Random(seed)
    k33 = Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)])
    out = [complete_graph(5), complete_graph(6), k33]
    while len(out) < count:
        n = rng.randint(2, 11)
        p = rng.random()
        out.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        )
    return out


def _embedded(graphs) -> list[Embedding]:
    embs = [planar_embed(g) for g in graphs]
    return [e for e in embs if isinstance(e, Embedding)]


def test_bitmask_path_forest_matches_is_path_forest():
    """`_is_path_forest` accepts the induced subgraph exactly when
    `is_path_forest` does, on seeded random graphs and masks, the empty
    mask (the common neighbourhood of an edge with no common neighbour), a
    pure cycle and a cycle beside a path."""
    rng = random.Random(47)
    cycle_and_path = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)])
    cases = [(cycle_and_path, m) for m in (0, 0b1111, 0b1110000, 0b1111111, 0b111111111)]
    cases += [(g, (1 << g.n) - 1) for g in (cycle_graph(3), cycle_graph(7))]
    for g in _random_graphs(300, seed=53):
        cases += [(g, 0), (g, (1 << g.n) - 1)]
        cases += [(g, rng.getrandbits(g.n)) for _ in range(10)]
    cycles = 0
    for g, mask in cases:
        sub, _ = induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1])
        forest = is_path_forest(sub)
        assert _is_path_forest(g.bitrows, mask) == forest.ok, (g.bitrows, mask)
        cycles += not forest and max(sub.degree_sequence(), default=0) <= 2
    assert _is_path_forest(cycle_and_path.bitrows, 0)
    assert cycles > 0


def test_lemma1_matches_embedding_reference():
    corpus_graphs = [e.graph for n in range(4, 11) for e in corpus(n)]
    variants = list(edge_deleted_variants(200, seed=23))
    random_graphs = _random_graphs(300, seed=29)
    for graphs in (corpus_graphs, variants, random_graphs):
        assert verify_lemma1(graphs).to_json_dict() == (
            _lemma1_reference(graphs).to_json_dict()
        )
    # the random set reaches the violation branches, notes included
    stats = verify_lemma1(random_graphs)
    assert stats.violations > 0 and stats.examples
    assert verify_lemma1([complete_graph(6)]).examples[0].endswith(
        "not a path forest"
    )


def test_lemma3_matches_pairwise_reference():
    corpus_embs = [e for n in range(4, 10) for e in corpus(n)]
    variants = _embedded(edge_deleted_variants(200, seed=23))
    planar_random = _embedded(_random_graphs(300, seed=29))
    for embs in (corpus_embs, variants, planar_random):
        assert verify_lemma3(embs).to_json_dict() == (
            _lemma3_reference(embs).to_json_dict()
        )


def test_lemmas_over_share_one_path_pass(monkeypatch):
    """The four sweeps run by one `_sweep` give the same stats as the
    separate sweeps and make one paths3_per_edge pass per graph, not one
    per sweep."""
    embs = [e for n in range(5, 10) for e in corpus(n)]
    graphs = [e.graph for e in embs]
    separate = {
        "lemma1": verify_lemma1(graphs),
        "lemma2": verify_lemma2(graphs),
        "lemma3": verify_lemma3(embs),
        "remark4": verify_remark4(embs),
    }
    calls = []
    real = kernels.paths3_per_edge

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(kernels, "paths3_per_edge", counted)
    shared = _sweep(_LEMMAS, ((e.graph, e.rotations) for e in embs))
    assert len(calls) == len(embs)
    assert {k: v.to_json_dict() for k, v in shared.items()} == {
        k: v.to_json_dict() for k, v in separate.items()
    }


# ---------------------------------------------------------------------------
# Reference route for the per-class check: the per-item check it replaced,
# one record per edge, face and vertex, every common neighbourhood walked
# by `graphs.is_path_forest`, faces traced by `_triangles` and paths
# counted by the pure 3-path loop
# ---------------------------------------------------------------------------


def _triangles(rots) -> list[tuple[int, int, int]]:
    """The triangular faces of a rotation system, in face-tracing order.

    With pred_v(w) the neighbour before w around v, the face traced from the
    dart (v, w) is the triangle (v, w, x) iff x = pred_v(w), v = pred_w(x)
    and w = pred_x(v).  As the face trace in `embeddings` does, each is
    listed at its least vertex v, darts in rotation order.  `_check`'s
    dart walk finds the same faces in the same order; this reader is the
    reference the tests hold both to."""
    pred = {(v, w): rot[i - 1] for v, rot in enumerate(rots) for i, w in enumerate(rot)}
    return [(v, w, x) for (v, w), x in pred.items()
            if v < w and v < x and pred.get((w, x)) == v and pred[x, v] == w]


def _check_reference(stats: dict[str, LemmaStats], n: int, rows, rots=None) -> None:
    edges = [(u, v) for u in range(n) for v in _bits(rows[u] >> u + 1 << u + 1)]
    if "lemma1" in stats:
        g = Graph._from_rows(rows)
        for u, v in edges:
            sub, _ = induced_subgraph(g, _bits(rows[u] & rows[v]))
            ok = is_path_forest(sub).ok
            stats["lemma1"].record(ok, note=None if ok else
                                   f"n={n} edge=({u},{v}): not a path forest")
    if "lemma2" in stats or "lemma3" in stats:
        paths = dict(zip(edges, kernels._purekern.paths3_per_edge(rows)))
    if "lemma2" in stats and n >= 3:
        bound = 2 * (n - 3)
        for (u, v), cnt in paths.items():
            ok = cnt <= bound
            stats["lemma2"].record(ok, bound - cnt, None if ok else
                                   f"n={n} edge=({u},{v}) paths={cnt} > {bound}")
    if "lemma3" in stats and n >= 4:
        for face in _triangles(rots):
            a, b, c = sorted(face)
            cnt = paths[a, b] + paths[b, c] + paths[a, c]
            bound = 4 * (n - 1) if rows[a] & rows[b] & rows[c] else 4 * n - 9
            ok = cnt <= bound
            stats["lemma3"].record(ok, bound - cnt, None if ok else
                                   f"n={n} face={face} paths={cnt} > {bound}")
    if "remark4" in stats:
        for v, rot in enumerate(rots):
            ok = all(rows[a] >> b & 1 for a, b in zip(rot, rot[1:] + rot[:1]))
            stats["remark4"].record(ok, note=None if ok else f"n={n} vertex={v} rotation gap")


_ALL = ("lemma1", "lemma2", "lemma3", "remark4")


def _reference_json(names, items) -> dict:
    """The reference sweeps over (graph, rotation system) pairs, as JSON."""
    stats = {name: LemmaStats() for name in names}
    for g, rots in items:
        _check_reference(stats, g.n, g.bitrows, rots)
    return {k: v.to_json_dict() for k, v in stats.items()}


def _as_json(stats) -> dict:
    return {k: v.to_json_dict() for k, v in stats.items()}


def test_level_check_matches_per_item_reference():
    """The per-class check (one edge_profile pass, faces read off the
    rotations, the Lemma 1 shortcut, aggregate recording) gives the per-item
    reference's stats and counts on every class up to n = 10, and so does
    the route of `verify --lemmas-only` (no count, one paths3_per_edge pass
    per class)."""
    for n in range(5, 11):
        codes = corpus_codes(n)
        counts, stats = _check_chunk(codes, _ALL, True)
        no_counts, lemmas_only = _check_chunk(codes, _ALL, False)
        items = []
        for code in codes:
            rots = _code_rotations(code)
            items.append((Graph._from_rows(_rows(rots)), rots))
        reference = _reference_json(_ALL, items)
        assert _as_json(stats) == reference, n
        assert _as_json(lemmas_only) == reference and no_counts == [], n
        assert counts == [sum(_c5_per_edge_reference(g.bitrows, n)) // 5 for g, _ in items]


def test_pooled_check_spans_rounds_and_equals_serial(monkeypatch, pool_rounds):
    """With small rounds, the pooled level check (counts and lemmas, n = 9
    and 10) and the pooled variant sweep each feed one pool several rounds
    of at most _ROUND items per worker, cut into 4 * workers chunks, and
    give the serial results."""
    serial = [_check_level(n, _ALL, 1, True) for n in (9, 10)]
    serial_variants = _check_variants(300, 7, 1)
    monkeypatch.setattr(enumeration, "_POOL_MIN", 2)
    monkeypatch.setattr(enumeration, "_ROUND", 16)
    pooled = [_check_level(n, _ALL, 2, True) for n in (9, 10)]
    pooled_variants = _check_variants(300, 7, 2)
    # one pool per call; 50, 233 and 300 items in rounds of at most 2 * 16,
    # each cut into 8 chunks whose sizes differ by at most one
    assert [[sum(chunks) for chunks in pool] for pool in pool_rounds] == [
        [32, 18], [32] * 7 + [9], [32] * 9 + [12]]
    for chunks in (chunks for pool in pool_rounds for chunks in pool):
        assert len(chunks) == 8 and max(chunks) - min(chunks) <= 1
    for (counts, stats), (more_counts, more) in zip(serial, pooled):
        assert more_counts == counts and _as_json(more) == _as_json(stats)
    assert _as_json(pooled_variants) == _as_json(serial_variants)


def test_sweeps_match_per_item_reference_with_violations():
    """On graphs that violate the lemmas (K5, K6, K3,3 and random graphs,
    under sorted and random rotation systems) and on the edge-deleted
    variants, the sweeps give the per-item reference's stats, notes and
    their order included."""
    rng = random.Random(43)
    graphs = _random_graphs(300, seed=29)   # K5, K6, K3,3 first
    items = [(g, g.neighbors) for g in graphs[:3]]
    items += [(g, [rng.sample(r, len(r)) for r in g.neighbors]) for g in graphs]
    for names in (_ALL, ("lemma1",), ("lemma2",), ("lemma3",), ("remark4",)):
        stats = _sweep(names, items)
        assert _as_json(stats) == _reference_json(names, items), names
        assert all(v.violations > MAX_VIOLATION_EXAMPLES for v in stats.values())
    variants = list(edge_deleted_variants(200, seed=23))
    embs = [(e.graph, e.rotations) for e in map(planar_embed, variants)]
    names = ("lemma1", "lemma2", "lemma3")
    assert _as_json(_check_variant_chunk(variants)[1]) == _reference_json(names, embs)


def _swapped(emb: Embedding, rng: random.Random) -> Embedding:
    """The embedding with two rotation entries swapped at one vertex of
    degree >= 3 (a rotation system of the same graph, mostly not spherical)."""
    rots = [list(r) for r in emb.rotations]
    v = rng.choice([v for v, r in enumerate(rots) if len(r) >= 3])
    i, j = rng.sample(range(len(rots[v])), 2)
    rots[v][i], rots[v][j] = rots[v][j], rots[v][i]
    return Embedding(emb.graph, rots)


def test_rotation_triangles_match_traced_faces():
    """The triangles read off the rotations are the traced triangular faces,
    boundaries and order included."""
    rng = random.Random(37)
    corpus_embs = [e for n in range(4, 11) for e in corpus(n)]
    variants = _embedded(edge_deleted_variants(200, seed=23))
    planar_random = _embedded(_random_graphs(300, seed=29))
    swapped = [_swapped(e, rng) for e in corpus_embs[:400] + variants]
    assert any(not e.is_spherical for e in swapped)
    for embs in (corpus_embs, variants, planar_random, swapped):
        for emb in embs:
            assert _triangles(emb.rotations) == [
                f.boundary for f in triangular_faces(emb)
            ]


def _remark4_reference(embeddings) -> LemmaStats:
    """Remark 4 per vertex through `Graph.has_edge`."""
    stats = LemmaStats()
    for emb in embeddings:
        g = emb.graph
        for v, rot in enumerate(emb.rotations):
            ok = all(g.has_edge(rot[i], rot[(i + 1) % len(rot)]) for i in range(len(rot)))
            stats.record(ok, note=f"n={g.n} vertex={v} rotation gap")
    return stats


def test_remark4_matches_has_edge_reference():
    rng = random.Random(41)
    corpus_embs = [e for n in range(4, 10) for e in corpus(n)]
    swapped = [_swapped(e, rng) for e in corpus_embs]
    shuffled = [Embedding(g, [rng.sample(r, len(r)) for r in g.neighbors])
                for g in _random_graphs(300, seed=29)]
    for embs in (corpus_embs, swapped, shuffled):
        assert verify_remark4(embs).to_json_dict() == (
            _remark4_reference(embs).to_json_dict()
        )
    assert verify_remark4(swapped).violations > 0


def test_merge_of_split_sweeps_equals_unsplit():
    """Each sweep split at every cut point and merged back equals the
    unsplit sweep, violation examples and their cap included."""
    graphs = _random_graphs(80, seed=31)   # K5, K6, K3,3 first
    rng = random.Random(31)
    embs = [Embedding(g, [rng.sample(r, len(r)) for r in g.neighbors]) for g in graphs]
    for sweep, items in ((verify_lemma1, graphs), (verify_lemma2, graphs),
                         (verify_lemma3, embs), (verify_remark4, embs)):
        whole = sweep(items)
        assert whole.violations > MAX_VIOLATION_EXAMPLES == len(whole.examples)
        for cut in range(len(items) + 1):
            left = sweep(items[:cut])
            left.merge(sweep(items[cut:]))
            assert left.to_json_dict() == whole.to_json_dict(), (sweep, cut)
