"""Acceptance suite: one test per criterion, printing a pass/fail line each
(run with -s to see the lines live).

Three stated target values are provably wrong and therefore kept as strict
expected failures next to their verified twins (details in the assertions):
the joined-apexes family counts 2n^2-10n+6 pentagons, not 2n^2-10n+8, and
n = 5 admits 6 pentagons, not the quadratic's 12.  Every such deviation was
confirmed by the independent brute-force counter, by hand derivation, and
against an external library.
"""

import random
import time

import pytest

from pentaplanar import enumeration
from pentaplanar.canon import canonical_form
from pentaplanar.counting import (
    count_cycles,
    count_cycles_bruteforce,
    g_formula,
)
from pentaplanar.embeddings import Embedding, planar_embed
from pentaplanar.enumeration import (
    code_to_embedding,
    corpus,
    corpus_codes,
    enumerate_triangulations,
    _digest,
    _grow,
)
from pentaplanar.families import (
    EXCEPTIONAL_C5,
    EXCEPTIONAL_VERTICES,
    build_A,
    build_D,
    build_E,
    build_exceptional,
)
from pentaplanar.graphs import Graph, to_graph6
from pentaplanar.oracles import bruteforce_triangulations
from pentaplanar.verification import (
    edge_deleted_variants,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_theorem,
)

# the proven maxima for n = 5..12
EXPECTED_MAX = {5: 6, 6: 24, 7: 41, 8: 60, 9: 84, 10: 112, 11: 144, 12: 180}
EXPECTED_CLASS_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233,
                         11: 1249, 12: 7595}

VARIANTS_SEED = 20260808
RANDOM_SEED = 1729


def _line(text: str) -> None:
    print(f"\nACCEPTANCE {text}")


# ---------------------------------------------------------------------------
# Criterion 1: golden family counts
# ---------------------------------------------------------------------------


def test_criterion_1_family_counts_verified():
    t0 = time.perf_counter()
    for n in range(5, 61):
        expected_d = 6 if n == 5 else (41 if n == 7 else 2 * n * n - 10 * n + 12)
        assert count_cycles(build_D(n), 5) == expected_d, f"D_{n}"
        assert count_cycles(build_E(n), 5) == 2 * n * n - 10 * n + 6, f"E_{n}"
    assert count_cycles(build_D(6), 5) == 24
    assert count_cycles(build_E(6), 5) == 18
    assert count_cycles(build_D(7), 5) == 41
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(f"1 golden family counts (n=5..60, verified values): PASS ({elapsed:.1f}s)"
          " [note: joined-apexes family counts 2n^2-10n+6; see xfail twin]")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the joined-apexes construction has "
    "2n^2-10n+6 pentagons (brute-force, hand count, and external library "
    "all agree), not 2n^2-10n+8",
)
def test_criterion_1_joined_apexes_formula_as_stated():
    assert count_cycles(build_E(6), 5) == 20
    for n in range(5, 61):
        assert count_cycles(build_E(n), 5) == 2 * n * n - 10 * n + 8


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the unique 5-vertex maximal planar graph "
    "has 6 pentagons; the quadratic 2n^2-10n+12 only takes over at n = 6",
)
def test_criterion_1_double_wheel_n5_as_stated():
    assert count_cycles(build_D(5), 5) == 2 * 25 - 50 + 12


# ---------------------------------------------------------------------------
# Criterion 2: exceptional catalog
# ---------------------------------------------------------------------------


def test_criterion_2_exceptional_catalog():
    t0 = time.perf_counter()
    assert EXCEPTIONAL_VERTICES == (7, 8, 9, 9, 10, 11)
    assert EXCEPTIONAL_C5 == (36, 60, 79, 80, 110, 144)
    for i in range(6):
        g = build_exceptional(i)
        assert g.n == EXCEPTIONAL_VERTICES[i]
        assert count_cycles(g, 5) == EXCEPTIONAL_C5[i]
    assert canonical_form(build_exceptional(1)) == canonical_form(build_A(8))
    assert canonical_form(build_exceptional(5)) == canonical_form(build_A(11))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(f"2 exceptional catalog (counts 36,60,79,80,110,144): PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 3: theorem verification by exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_3_theorem_verification():
    small_elapsed = 0.0
    for n in range(5, 13):
        t0 = time.perf_counter()
        cert = verify_theorem(n)
        dt = time.perf_counter() - t0
        if n <= 11:
            small_elapsed += dt
        else:
            assert dt < 600.0
        assert cert.max_c5 == EXPECTED_MAX[n], f"max at n={n}"
        families = sorted(e.family for e in cert.extremal)
        if n in (8, 11):
            assert families == ["A", "D"], f"extremal set at n={n}"
        else:
            assert families == ["D"], f"extremal set at n={n}"
        if cert.second_best is not None:
            assert cert.second_best < cert.max_c5, f"gap at n={n}"
        assert cert.theorem_match
    assert small_elapsed < 60.0
    _line(
        "3 theorem verification (n=5..12, maxima 6,24,41,60,84,112,144,180, "
        f"extremal families as proven): PASS (n<=11 in {small_elapsed:.1f}s)"
        " [note: the true maximum at n=5 is 6, not g(5)=12; see xfail twin]"
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: no 5-vertex planar graph reaches 12 "
    "pentagons; the exhaustive maximum at n=5 is 6",
)
def test_criterion_3_n5_quadratic_as_stated():
    cert = verify_theorem(5)
    assert cert.max_c5 == g_formula(5)


# ---------------------------------------------------------------------------
# Criterion 4: enumeration correctness
# ---------------------------------------------------------------------------


def test_criterion_4_enumeration_matches_oracle_and_goldens():
    t0 = time.perf_counter()
    for n in (4, 5, 6, 7):
        gen_forms = sorted(canonical_form(e.graph) for e in corpus(n))
        oracle_forms = bruteforce_triangulations(n)
        assert gen_forms == oracle_forms, f"oracle mismatch at n={n}"
        assert len(gen_forms) == EXPECTED_CLASS_COUNTS[n]
    for n in range(8, 13):
        assert len(corpus(n)) == EXPECTED_CLASS_COUNTS[n], f"count at n={n}"
    elapsed = time.perf_counter() - t0
    _line(
        "4 enumeration correctness (oracle-equal for n=4..7; "
        f"counts 14,50,233,1249,7595 for n=8..12): PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 5: lemma suites over the full corpus plus variants
# ---------------------------------------------------------------------------


def test_criterion_5_lemma_suites():
    t0 = time.perf_counter()
    totals = {"lemma1": 0, "lemma2": 0, "lemma3": 0}
    checked = {"lemma1": 0, "lemma2": 0, "lemma3": 0}

    def absorb(stats_by_name):
        for name, stats in stats_by_name.items():
            assert stats.violations == 0, f"{name}: {stats.examples}"
            totals[name] += stats.violations
            checked[name] += stats.checked

    for n in range(4, 13):
        embs = corpus(n)
        graphs = [e.graph for e in embs]
        absorb(
            {
                "lemma1": verify_lemma1(graphs),
                "lemma2": verify_lemma2(graphs),
                "lemma3": verify_lemma3(embs),
            }
        )

    variants = list(edge_deleted_variants(1000, seed=VARIANTS_SEED))
    emb_variants = []
    for g in variants:
        emb = planar_embed(g)
        assert isinstance(emb, Embedding)
        emb_variants.append(emb)
    absorb(
        {
            "lemma1": verify_lemma1(variants),
            "lemma2": verify_lemma2(variants),
            "lemma3": verify_lemma3(emb_variants),
        }
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert sum(totals.values()) == 0
    _line(
        "5 lemma suites (full n<=12 corpus + 1000 edge-deleted variants, "
        f"checks {checked}): 0 violations, PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 6: counter oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_counter_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(RANDOM_SEED)
    for trial in range(500):
        n = rng.randint(1, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        for k in (3, 4, 5):
            assert count_cycles(g, k) == count_cycles_bruteforce(g, k), (
                f"trial {trial}, k={k}"
            )
    for n in range(4, 9):
        for emb in corpus(n):
            for k in (3, 4, 5):
                assert count_cycles(emb.graph, k) == count_cycles_bruteforce(
                    emb.graph, k
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        "6 counter oracle equivalence (500 random graphs + corpus n<=8, "
        f"k=3,4,5): PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 7: Hamiltonian neighborhoods in every triangulation
# ---------------------------------------------------------------------------


def test_criterion_7_neighborhood_cycles():
    from pentaplanar.embeddings import neighborhood_cycle

    t0 = time.perf_counter()
    graphs_checked = 0
    for n in range(4, 11):
        for emb in corpus(n):
            for v in range(n):
                cyc = neighborhood_cycle(emb, v)
                assert cyc is not None
                assert sorted(cyc) == list(emb.graph.neighbors[v])
            graphs_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(
        f"7 Hamiltonian neighborhoods (every vertex of {graphs_checked} "
        f"triangulations, n<=10): PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 8: determinism across worker counts
# ---------------------------------------------------------------------------


def _fresh_digest(n: int, workers: int) -> str:
    """Digest of level n built from K4 here, bypassing the level cache."""
    level = corpus_codes(4)
    for level in _grow(level, n, workers):
        pass
    return _digest(sorted(to_graph6(code_to_embedding(c).graph) for c in level))


def test_criterion_8_worker_determinism(monkeypatch, pool_rounds):
    t0 = time.perf_counter()
    d1 = _fresh_digest(10, workers=1)
    with monkeypatch.context() as m:
        # lowered thresholds, so that level 9's 50 parents reach a pool
        m.setattr(enumeration, "_POOL_MIN", 2)
        m.setattr(enumeration, "_ROUND", 4)
        d8 = _fresh_digest(10, workers=8)
    # one pool, two rounds of at most 4 * 8 parents, one chunk per parent
    assert pool_rounds == [[[1] * 32, [1] * 18]]
    assert d1 == d8 == enumerate_triangulations(10).digest
    c1 = verify_theorem(9, workers=1).to_json_dict()
    c8 = verify_theorem(9, workers=8).to_json_dict()
    assert c1 == c8
    e1 = enumerate_triangulations(11, workers=1)
    e8 = enumerate_triangulations(11, workers=8)
    assert e1 == e8
    elapsed = time.perf_counter() - t0
    _line(
        "8 determinism (corpus digests and certificates, workers 1 vs 8): "
        f"PASS ({elapsed:.1f}s)"
    )
