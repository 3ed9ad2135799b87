import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from pentaplanar.canon import canonical_form
from pentaplanar.embeddings import is_triangulation, planar_embed
from pentaplanar import _purekern, enumeration, kernels, verification
from pentaplanar.enumeration import (
    _automorphisms,
    _candidate_splits,
    _code_rotations,
    _expand_batch,
    _fan_out,
    _grow,
    _new_edge_is_minimal,
    code_to_embedding,
    corpus,
    corpus_codes,
    corpus_graph6,
    enumerate_triangulations,
    split_vertex,
)
from pentaplanar.oracles import audit_dump, bruteforce_triangulations, flip_graph_triangulations
from pentaplanar.families import build_D
from pentaplanar.graphs import Graph, GraphError, complete_graph, parse_graph6, to_graph6
from pentaplanar.verification import verify_monotonicity, verify_theorem

# published class counts of planar triangulations (simplicial polyhedra)
KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}

# sha256 of the sorted graph6 dump of each level, pinned when the generator
# first produced it; any change to enumeration or canonical labeling that
# alters a class or its graph6 line shows up here
KNOWN_DIGESTS = {
    4: "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    5: "222ae4b460c1d619522d6d14ff4931ae24d12f2357493d61d27365bc7dc8432e",
    6: "3e3c014200950841e151c2adfea66db28a1911475ba27f0fc947f9d77c8b802d",
    7: "7614cba98077385e3f41ba926a468f2213460aef9ac9c7dc292289bcd1e64a23",
    8: "bb4fd06c03debbf43ccf17f58eb1ce31a0c7962557427bbf6f7ab82831e42a1b",
    9: "0eb122596adc53c6a0173bd77cda9036517a1e964c9296774463a705a7c9869c",
    10: "34a7a333f363a4db6e0a85c5b19cde56e82c5ed76dcd652883dd629c390a6f06",
    11: "e32eaa39df13ccddbf5a329a5254bd0388f7a97638785eba2e797683014b4064",
    12: "6bace6f651a1c6c4b7ca95c61b87b6a42e399619df2e995319ebfaf0740a41e2",
}


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_class_counts(n):
    assert len(corpus(n)) == KNOWN_COUNTS[n]


def test_every_class_is_a_valid_triangulation():
    for n in (4, 5, 6, 7, 8):
        for emb in corpus(n):
            g = emb.graph
            assert g.m == 3 * n - 6
            assert min(g.degree_sequence()) >= 3
            assert is_triangulation(emb)


def test_no_duplicate_canonical_forms():
    for n in (6, 7, 8, 9):
        forms = [canonical_form(e.graph) for e in corpus(n)]
        assert len(set(forms)) == len(forms)


def test_generator_equals_bruteforce_oracle_small():
    for n in (4, 5, 6):
        gen = sorted(canonical_form(e.graph) for e in corpus(n))
        assert gen == bruteforce_triangulations(n)


def test_bruteforce_range_check():
    with pytest.raises(GraphError):
        bruteforce_triangulations(8)
    with pytest.raises(GraphError):
        bruteforce_triangulations(2)


def _as_embedding(rotations):
    from pentaplanar.embeddings import Embedding
    from pentaplanar.graphs import Graph

    edges = sorted(
        {(min(v, w), max(v, w)) for v, rot in enumerate(rotations) for w in rot}
    )
    return Embedding(Graph(len(rotations), edges), rotations)


def test_split_vertex_always_yields_triangulations():
    for parent in corpus(6):
        rot = parent.rotations
        for v in range(6):
            d = len(rot[v])
            for i in range(d):
                for j in range(i + 1, d):
                    child = _as_embedding(split_vertex(rot, v, i, j))
                    assert child.graph.n == 7
                    assert child.graph.m == 3 * 7 - 6
                    assert is_triangulation(child)


def test_code_roundtrip():
    for emb in corpus(7):
        code = kernels.embedding_min_code(emb.rotations)
        back = code_to_embedding(code)
        assert kernels.embedding_min_code(back.rotations) == code
        assert canonical_form(back.graph) == canonical_form(emb.graph)


def test_certificate_and_dump():
    cert = enumerate_triangulations(6)
    assert cert.count == 2
    lines = corpus_graph6(6)
    assert lines == sorted(lines)
    assert len(lines) == 2
    for line in lines:
        assert parse_graph6(line).n == 6
    payload = json.loads(cert.to_json())
    assert payload["schema_version"] == 1
    assert payload["count"] == 2
    assert payload["digest"] == cert.digest


def test_determinism_across_runs_and_workers(monkeypatch, pool_rounds):
    # fresh level builds, not the process-lifetime level cache
    def codes(start, n, workers):
        return list(_grow(start, n, workers))

    base = codes(corpus_codes(9), 10, 1)
    assert codes(corpus_codes(9), 10, 1) == base
    assert base == [tuple(kernels.embedding_min_code(e.rotations) for e in corpus(10))]
    serial = codes(corpus_codes(4), 10, 1)
    assert pool_rounds == []
    # levels this small reach a pool, over several rounds, only with
    # lowered thresholds
    monkeypatch.setattr(enumeration, "_POOL_MIN", 2)
    monkeypatch.setattr(enumeration, "_ROUND", 8)
    assert codes(corpus_codes(9), 10, 4) == base
    assert codes(corpus_codes(4), 10, 2) == serial
    # one pool per level with more than 2 parents per worker: 50 parents in
    # rounds of 8 * 4, then 5, 14 and 50 parents in rounds of 8 * 2, each
    # round cut into 4 * workers chunks (or one per parent, if fewer)
    assert [[sum(r) for r in pool] for pool in pool_rounds] == [
        [32, 18], [5], [14], [16, 16, 16, 2]]
    assert [[len(r) for r in pool] for pool in pool_rounds] == [
        [16, 16], [5], [8], [8, 8, 8, 2]]


def test_fan_out_sends_bounded_rounds_of_contiguous_chunks(monkeypatch, pool_rounds):
    """`_fan_out` yields one result per chunk in item order: one chunk of
    every item at or under _POOL_MIN items per worker, else rounds of at
    most _ROUND items per worker, each cut into 4 * workers contiguous
    chunks of near-equal size."""
    monkeypatch.setattr(enumeration, "_POOL_MIN", 2)
    monkeypatch.setattr(enumeration, "_ROUND", 10)
    items = range(50)
    assert list(_fan_out(tuple, items, 50, 1)) == [tuple(items)]
    assert list(_fan_out(tuple, range(4), 4, 2)) == [(0, 1, 2, 3)]
    assert pool_rounds == []
    chunks = list(_fan_out(tuple, iter(items), 50, 2))
    # rounds of 20 items, 8 chunks each: sizes 2 and 3, then 10 in 8 chunks
    assert [len(c) for c in chunks] == [2, 3, 2, 3, 2, 3, 2, 3] * 2 + [1, 1, 1, 2, 1, 1, 1, 2]
    assert [x for c in chunks for x in c] == list(items)
    assert pool_rounds == [[[len(c) for c in chunks[k : k + 8]] for k in (0, 8, 16)]]


@pytest.mark.parametrize("n", sorted(KNOWN_DIGESTS))
def test_corpus_digests_are_pinned(n):
    cert = enumerate_triangulations(n)
    assert (cert.count, cert.digest) == (KNOWN_COUNTS[n], KNOWN_DIGESTS[n])


def _splits(rotations):
    for v, rot_v in enumerate(rotations):
        for i in range(len(rot_v)):
            for j in range(i + 1, len(rot_v)):
                yield v, i, j


def _expand_batch_unfiltered(batch):
    """Reference: the canonical codes of every child, with no child filter."""
    codes = set()
    for rotations in batch:
        for v, i, j in _splits(rotations):
            child = split_vertex(rotations, v, i, j)
            codes.add(kernels.embedding_min_code(child))
    return codes


def test_child_filter_loses_no_class():
    for n in range(4, 11):
        parents = [e.rotations for e in corpus(n)]
        assert _expand_batch(corpus_codes(n)) == _expand_batch_unfiltered(parents), n


def _new_edge_is_minimal_reference(child, v):
    """Reference filter, read off the child itself: no contractible edge has
    a smaller key than the new edge (v, new), where the key of xy is its
    (min, max) endpoint degree pair, then the sorted degrees of the two
    common neighbours of x and y."""
    nbrs = [set(r) for r in child]
    deg = [len(r) for r in child]

    def key(x, y):
        return sorted((deg[x], deg[y])), sorted(deg[w] for w in nbrs[x] & nbrs[y])

    new_key = key(v, len(child) - 1)
    return not any(
        len(nbrs[x] & nbrs[y]) == 2 and key(x, y) < new_key
        for x in range(len(child))
        for y in child[x]
    )


def _rows_and_degs(rotations):
    return [sum(1 << w for w in r) for r in rotations], [len(r) for r in rotations]


@pytest.fixture
def min_code_calls(monkeypatch):
    """The child rotation systems `_expand_batch` hands to
    `embedding_min_code`, which returns them uncoded."""
    for n in range(4, 12):
        corpus_codes(n)  # fill the level cache before the kernel is replaced
    calls = []
    monkeypatch.setattr(kernels, "embedding_min_code", lambda rot: calls.append(rot) or rot)
    return calls


def _same_cycle(a, b):
    """Whether the sequences a and b are equal up to a cyclic shift."""
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and any(a[k:] + a[:k] == b for k in range(len(a)))


def _reference_automorphisms(rotations):
    """Aut(P) by full relabelings, with no early abort: from every dart
    (u, v) in both directions, the map that sends the dart (0, first
    neighbour of 0) to (u, v) and then each rotation onto its image's,
    kept when it is a bijection that maps every rotation onto its image's
    rotation (reversed for the backward direction).  As a set of pairs
    (sigma, reversed), sigma[k] the image of vertex k."""
    n = len(rotations)
    found = set()
    for u, rot_u in enumerate(rotations):
        for v in rot_u:
            for rev in (False, True):
                sigma = {0: u}
                anchor = {0: (rotations[0][0], v)}
                queue = [0]
                for x in queue:
                    rx, ry = rotations[x], rotations[sigma[x]]
                    if len(rx) != len(ry):
                        break
                    a, b = anchor[x]
                    i, j, d = rx.index(a), ry.index(b), len(rx)
                    for k in range(d):
                        w, z = rx[(i + k) % d], ry[(j - k if rev else j + k) % d]
                        if w not in sigma:
                            sigma[w] = z
                            anchor[w] = (x, sigma[x])
                            queue.append(w)
                else:
                    image = tuple(sigma[k] for k in range(n))
                    if sorted(image) == list(range(n)) and all(
                        _same_cycle([image[w] for w in rot],
                                    rotations[image[k]][::-1] if rev else rotations[image[k]])
                        for k, rot in enumerate(rotations)
                    ):
                        found.add((image, rev))
    return found


def _split_image(sigma, rotations, v, i, j):
    """The split (v', i', j'), i' < j', that the automorphism sigma maps
    the split of v at i < j onto."""
    rot_v, image = rotations[v], rotations[sigma[v]]
    p, q = sorted((image.index(sigma[rot_v[i]]), image.index(sigma[rot_v[j]])))
    return sigma[v], p, q


def _code(rotations):
    return _purekern.embedding_min_code(rotations)


def _assert_filter_matches_reference(rotations, calls):
    """Every split of one parent, relabeled canonically: the exact filter
    agrees with the reference, the threshold skips none that the reference
    keeps, the finder gives the reference's Aut(P), and the children that
    reach `embedding_min_code` are exactly those of the splits the
    reference keeps that are least in their Aut(P)-orbit.  Returns the
    numbers of splits, threshold survivors and kernel calls."""
    code = _code(rotations)
    rotations = _code_rotations(code)
    rows, degs = _rows_and_degs(rotations)
    candidates = set(_candidate_splits(rotations, rows, degs, []))
    auts = _reference_automorphisms(rotations)
    identity = tuple(range(len(rotations)))
    assert {tuple(sigma) for sigma in _automorphisms(rotations, code)} == (
        {sigma for sigma, _ in auts} - {identity})
    kept = []
    total = 0
    for v, i, j in _splits(rotations):
        child = split_vertex(rotations, v, i, j)
        keep = _new_edge_is_minimal_reference(child, v)
        assert _new_edge_is_minimal(rows, degs, v, rotations[v], i, j) == keep
        assert (v, i, j) in candidates or not keep
        total += 1
        if keep and all(_split_image(sigma, rotations, v, i, j) >= (v, i, j)
                        for sigma, _ in auts):
            kept.append(child)
    calls.clear()
    _expand_batch([code])
    assert sorted(calls) == sorted(kept)
    return total, len(candidates), len(kept)


def test_child_filter_matches_reference_and_rejects_most_children(min_code_calls):
    kept_per_level = []
    for n in range(4, 11):
        tallies = [_assert_filter_matches_reference(_code_rotations(code), min_code_calls)
                   for code in corpus_codes(n)]
        total, _, kept = map(sum, zip(*tallies))
        kept_per_level.append(kept)
    assert total == 23857  # the n = 10 level
    assert kept < 0.2 * total
    # kernel calls for n = 5..11: one per Aut(P)-orbit of the splits whose
    # new edge has the least key; the key's apex degrees are the child's,
    # and a filter that reads them off the parent keeps more yet still
    # finds every class
    assert kept_per_level == [1, 2, 5, 14, 54, 257, 1429]


def test_orbit_pruning_codes_8751_children_of_the_n_11_level(min_code_calls):
    # 7 595 classes plus 1 156 key ties between different orbits of the new
    # edge; without the pruning 10 545
    _expand_batch(corpus_codes(11))
    assert len(min_code_calls) == 8751


def test_threshold_skips_two_thirds_of_the_splits():
    total = candidates = 0
    for code in corpus_codes(11):
        rotations = _code_rotations(code)
        candidates += sum(1 for _ in _candidate_splits(rotations, *_rows_and_degs(rotations), []))
        total += sum(1 for _ in _splits(rotations))
    assert (total, candidates) == (150139, 46882)


def _random_triangulation_rotations(n, min_degree, rng):
    """A triangulation stacked from K4 by face insertions, mixed by random
    flips, then flipped towards minimum degree `min_degree` at the edges
    opposite its low vertices; its rotation system under a random labeling,
    or None if the minimum degree was not reached."""
    faces = {frozenset(f) for f in combinations(range(4), 3)}
    for v in range(4, n):
        f = rng.choice(sorted(faces, key=sorted))
        faces.remove(f)
        faces |= {frozenset(p) | {v} for p in combinations(f, 2)}
    edges = {frozenset(p) for f in faces for p in combinations(f, 2)}
    deg = Counter(x for e in edges for x in e)

    def flip(e):
        f1, f2 = [f for f in faces if e <= f]
        (c,), (d,) = f1 - e, f2 - e
        a, b = e
        if frozenset((c, d)) in edges or deg[a] < 4 or deg[b] < 4:
            return
        faces.difference_update((f1, f2))
        faces.update((frozenset((a, c, d)), frozenset((b, c, d))))
        edges.symmetric_difference_update((e, frozenset((c, d))))
        deg.update((c, d))
        deg.subtract((a, b))

    for _ in range(3 * n):
        flip(rng.choice(sorted(edges, key=sorted)))
    for _ in range(40 * n):
        low = [x for x in range(n) if deg[x] < min_degree]
        if not low:
            break
        x = rng.choice(low)
        flip(rng.choice(sorted((f for f in faces if x in f), key=sorted)) - {x})
    if min(deg.values()) < min_degree:
        return None
    perm = list(range(n))
    rng.shuffle(perm)
    return planar_embed(Graph(n, [(perm[a], perm[b]) for a, b in edges])).rotations


def test_child_filter_matches_reference_on_random_min_degree_4_and_5(min_code_calls):
    # a triangulation with a smaller-f edge but no smaller-f contractible
    # edge than some new edge needs minimum degree 4 or 5 (CHANGES.md)
    rng = random.Random(1212)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(12, 30)
        min_degree = rng.choice((4, 5))
        rotations = _random_triangulation_rotations(n, min_degree, rng)
        if rotations is None:
            continue
        seen[min(map(len, rotations))] += 1
        _assert_filter_matches_reference(rotations, min_code_calls)
    assert seen[4] >= 10 and seen[5] >= 10, seen


def _icosahedron(label):
    """The icosahedron's edges, its vertices 0..11 named by `label`: 0 on
    top of the ring 1..5, the ring 6..10 below, 11 at the bottom; (0, 1, 2)
    is a face."""
    edges = []
    for i in range(1, 6):
        j = i % 5 + 1
        edges += [(0, i), (i, j), (11, 5 + i), (5 + i, 5 + j), (i, 5 + i), (i, 5 + j)]
    return [(label[a], label[b]) for a, b in edges]


def _witness_edges():
    """The edges of the 25-vertex witness: two icosahedra share only
    c = 0; y = 23 sees the face (c, x2, r) = (0, 1, 2) of the first and the
    face (c, x4, r2) = (0, 12, 13) of the second, and u = 24 sees y, c, x2
    and x4."""
    c, x2, r, y, u = 0, 1, 2, 23, 24
    second = [c, *range(12, 23)]
    x4, r2 = second[1], second[2]
    edges = _icosahedron(range(12)) + _icosahedron(second)
    edges += [(y, w) for w in (c, x2, r, r2, x4)]
    return edges + [(u, w) for w in (y, c, x2, x4)]


def _assert_rebuilding_splits_pass(parent, child):
    """Both splits of the parent that rebuild the child's class pass the
    threshold and the exact filter, and the reference filter agrees; the
    splits are returned."""
    rotations = planar_embed(parent).rotations
    prows, pdegs = _rows_and_degs(rotations)
    candidates = set(_candidate_splits(rotations, prows, pdegs, []))
    form = canonical_form(child)
    rebuilt = [(v, i, j) for v, i, j in _splits(rotations)
               if canonical_form(_as_embedding(split_vertex(rotations, v, i, j)).graph) == form]
    assert len(rebuilt) == 2
    for v, i, j in rebuilt:
        assert (v, i, j) in candidates
        assert _new_edge_is_minimal(prows, pdegs, v, rotations[v], i, j)
        assert _new_edge_is_minimal_reference(split_vertex(rotations, v, i, j), v)
    return rebuilt


def test_contractibility_is_needed_by_the_child_filter():
    # Two icosahedra share only c; y sees the face (c, x2, r) of the first
    # and the face (c, x4, r2) of the second, and u sees y, c, x2 and x4.
    x2, y, u, x4 = 1, 23, 24, 12
    edges = _witness_edges()
    parent = Graph(24, [e for e in edges if u not in e] + [(x2, x4)])  # u-x2 contracted
    witness = Graph(25, edges)
    rows = witness.bitrows
    deg = [row.bit_count() for row in rows]
    assert is_triangulation(planar_embed(witness))
    assert [v for v in range(25) if deg[v] == 4] == [u]
    # u-y has the least degree pair, but u, y, c is a separating triangle
    f = {(x, z): tuple(sorted((deg[x], deg[z]))) for x, z in witness.edges()}
    assert f[y, u] == (4, 6) == min(f.values())
    assert (rows[u] & rows[y]).bit_count() == 3
    assert min(f[e] for e in f if (rows[e[0]] & rows[e[1]]).bit_count() == 2) == (4, 7)
    # so a filter that also ranks non-contractible edges drops the class:
    # both splits of the parent that rebuild it must pass
    _assert_rebuilding_splits_pass(parent, witness)


def test_contractibility_is_needed_by_the_threshold():
    # In the witness above the small non-contractible edge u-y touches the
    # split vertex, so it never counts towards far(v).  Two copies of the
    # witness, on 0..24 and 25..49, joined by an antiprism between the
    # faces (11, 6, 7) and (36, 31, 32) of their first icosahedra, put a
    # second u-y edge far from the split.
    one = _witness_edges()
    edges = one + [(a + 25, b + 25) for a, b in one]
    edges += [(11, 36), (6, 31), (7, 32), (11, 31), (6, 32), (7, 36)]
    double = Graph(50, edges)
    rows = double.bitrows
    deg = [row.bit_count() for row in rows]
    assert is_triangulation(planar_embed(double))
    f = {(x, z): tuple(sorted((deg[x], deg[z]))) for x, z in double.edges()}
    common = {e: rows[e[0]] & rows[e[1]] for e in f}
    # the least f sits on the two u-y edges, each in a separating triangle;
    # the least contractible f, (4, 7) with apexes of degrees 6 and 12, on
    # u-x2 and u-x4 of each copy
    assert [e for e in f if f[e] == (4, 6) == min(f.values())] == [(23, 24), (48, 49)]
    assert common[23, 24].bit_count() == common[48, 49].bit_count() == 3
    contractible = [e for e in f if common[e].bit_count() == 2]
    assert min(f[e] for e in contractible) == (4, 7)
    assert [e for e in contractible if f[e] == (4, 7)] == [(1, 24), (12, 24), (26, 49), (37, 49)]
    assert {tuple(sorted(deg[w] for w in range(50) if common[e] >> w & 1))
            for e in contractible if f[e] == (4, 7)} == {(6, 12)}
    # contracting u-x2 of the first copy, (1, 24), gives the 49-vertex
    # parent, where the second copy's u-y is (47, 48)
    label = [1 if v == 24 else v - (v > 24) for v in range(50)]
    parent = Graph(49, sorted({tuple(sorted((label[a], label[b]))) for a, b in edges
                               if {a, b} != {1, 24}}))
    rebuilt = _assert_rebuilding_splits_pass(parent, double)
    # that edge lies outside N[v] of both splits, so a threshold that also
    # ranked non-contractible edges would set far(v) to (4, 6), below the
    # new edge's (4, 7), and drop both
    prows = parent.bitrows
    assert {v for v, _, _ in rebuilt} == {1, 12}
    for v, _, _ in rebuilt:
        assert not (prows[v] | 1 << v) & (1 << 47 | 1 << 48)


@pytest.mark.parametrize("graph, order", [
    (complete_graph(4), 24),
    (Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6) if b != a ^ 1]), 48),
    (Graph(12, _icosahedron(range(12))), 120),
    (build_D(7), 20),
    (build_D(8), 24),
    (parse_graph6("H~[wwSN"), 1),  # the first n = 9 class with no symmetry
], ids=["K4", "octahedron", "icosahedron", "D_7", "D_8", "rigid_n9"])
def test_automorphism_finder_gives_the_group(graph, order):
    # the finder lists the `order` - 1 distinct automorphisms other than
    # the identity, the reference's, and each maps every rotation onto its
    # image's rotation, reversed when the reference's relabeling ran
    # backwards
    rotations = _code_rotations(_code(planar_embed(graph).rotations))
    auts = _automorphisms(rotations, _code(rotations))
    reversed_by = dict(_reference_automorphisms(rotations))
    found = {tuple(sigma) for sigma in auts}
    assert len(auts) == len(found) == order - 1
    assert found == reversed_by.keys() - {tuple(range(len(rotations)))}
    for sigma in auts:
        rev = reversed_by[tuple(sigma)]
        assert sorted(sigma) == list(range(len(rotations)))
        for k, rot in enumerate(rotations):
            target = rotations[sigma[k]]
            assert _same_cycle([sigma[w] for w in rot], target[::-1] if rev else target)


def test_tutte_census():
    # Tutte: the rooted triangulations on n vertices number
    # 2(4k + 1)!/((k + 1)!(3k + 2)!), k = n - 3.  A rooting is one of the
    # 4m = 12n - 24 flags, on which Aut(T), reflections included, acts
    # freely, so the sum of 4m/|Aut(T)| over the classes is that number: a
    # lost or extra class, or a wrong group order, moves it.  CI runs the
    # same sum at n = 13 and 14
    for n in range(4, 13):
        k = n - 3
        rooted = 2 * factorial(4 * k + 1) // (factorial(k + 1) * factorial(3 * k + 2))
        total = sum(Fraction(12 * n - 24, 1 + len(_automorphisms(_code_rotations(code), code)))
                    for code in corpus_codes(n))
        assert total == rooted, n


@pytest.mark.parametrize("n", range(4, 11))
def test_flip_graph_oracle_matches_generator(n):
    assert flip_graph_triangulations(n) == sorted(canonical_form(e.graph) for e in corpus(n))


def test_flip_graph_oracle_range_check():
    with pytest.raises(GraphError):
        flip_graph_triangulations(3)
    with pytest.raises(GraphError):
        flip_graph_triangulations(12)


@pytest.mark.parametrize("n", range(4, 11))
def test_dump_audit_passes_the_generated_dump(n):
    assert audit_dump(n, corpus_graph6(n)) == []


def test_dump_audit_names_every_fault():
    lines = corpus_graph6(9)
    relabeled = to_graph6(parse_graph6(lines[0]).relabel([(v + 1) % 9 for v in range(9)]))
    assert relabeled != lines[0]
    edge_dropped = to_graph6(Graph(9, parse_graph6(lines[1]).edges()[1:]))
    count_fault = "49 lines, but A000109 counts 50 classes on 9 vertices"
    assert audit_dump(9, lines[:-1]) == [count_fault]
    assert audit_dump(9, lines[:-1] + [relabeled]) == ["line 50: isomorphic to line 1"]
    assert audit_dump(9, lines[:-1] + [lines[3]]) == ["line 50: isomorphic to line 4"]
    assert audit_dump(9, [lines[0], edge_dropped] + lines[2:]) == ["line 2: not a triangulation"]
    assert audit_dump(9, [corpus_graph6(8)[0]] + lines[1:]) == ["line 1: 8 vertices, not 9"]
    malformed = audit_dump(9, ["H!"] + lines[1:-1])
    assert len(malformed) == 2 and malformed[0].startswith("line 1: ")
    assert malformed[1] == count_fault
    with pytest.raises(GraphError):
        audit_dump(15, [])


def test_range_checks():
    with pytest.raises(GraphError):
        corpus(3)
    with pytest.raises(GraphError):
        corpus(15)


@pytest.fixture
def decodes(monkeypatch):
    """Count `code_to_embedding` calls, wherever it is called from, on a
    fresh level cache."""
    calls = []

    def counted(code):
        calls.append(code)
        return code_to_embedding(code)

    monkeypatch.setattr(enumeration, "code_to_embedding", counted)
    monkeypatch.setattr(verification, "code_to_embedding", counted)
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    return calls


def test_enumeration_decodes_no_class(decodes):
    cert = enumerate_triangulations(10)
    assert (cert.count, cert.digest) == (KNOWN_COUNTS[10], KNOWN_DIGESTS[10])
    assert decodes == []


def test_verify_theorem_decodes_only_the_maximizers(decodes):
    cert = verify_theorem(9)
    assert cert.theorem_match
    assert len(decodes) == len(cert.extremal)


def test_monotonicity_decodes_only_the_drawn_classes(decodes):
    assert verify_monotonicity(samples=20).passed
    assert len(decodes) == 20


def test_levels_are_sorted_bytes_codes():
    corpus_codes(9)
    assert set(range(4, 10)) <= set(enumeration._LEVELS)
    for n, level in enumeration._LEVELS.items():
        assert isinstance(level, tuple) and list(level) == sorted(level), n
        for code in level:
            assert type(code) is bytes and len(code) == 7 * n - 12, n


@pytest.mark.parametrize("n", range(4, 12))
def test_bytes_order_is_the_order_of_int_tuples(n):
    # corpus(n), the indices verify_theorem reports and the classes drawn
    # by index all follow the level's order, which was that of the tuples
    flat = [tuple(code) for code in corpus_codes(n)]
    assert flat == sorted(flat)


@pytest.mark.parametrize("n", range(4, 11))
def test_corpus_decodes_the_cached_codes_in_order(n):
    embs = corpus(n)
    assert [kernels.embedding_min_code(e.rotations) for e in embs] == list(corpus_codes(n))
