import pytest

from pentaplanar.canon import are_isomorphic, canonical_form
from pentaplanar.counting import count_cycles, count_cycles_bruteforce
from pentaplanar.embeddings import Embedding, is_triangulation, planar_embed
from pentaplanar.enumeration import corpus
from pentaplanar.families import (
    EXCEPTIONAL_C5,
    EXCEPTIONAL_VERTICES,
    FAMILY_MAX_N,
    FamilySpec,
    build_A,
    build_D,
    build_E,
    build_exceptional,
    expand,
    expected_c5,
    golden_catalog,
    spec_from_name,
)
from pentaplanar.graphs import GraphError
from pentaplanar.oracles import discover_catalog_graphs, verify_golden_entry


def test_build_D_structure():
    for n in (5, 6, 9, 13):
        g = build_D(n)
        assert g.n == n and g.m == 3 * n - 6
        # apexes are the last two vertices, never adjacent
        assert not g.has_edge(n - 2, n - 1)
        assert g.degree(n - 2) == g.degree(n - 1) == n - 2
        emb = planar_embed(g)
        assert isinstance(emb, Embedding) and is_triangulation(emb)
    with pytest.raises(GraphError):
        build_D(4)


def test_build_E_structure():
    for n in (5, 6, 9, 13):
        g = build_E(n)
        assert g.n == n and g.m == 3 * n - 6
        assert g.has_edge(n - 2, n - 1)
        emb = planar_embed(g)
        assert isinstance(emb, Embedding) and is_triangulation(emb)
    with pytest.raises(GraphError):
        build_E(4)


def test_D_pentagon_counts():
    assert count_cycles(build_D(5), 5) == 6
    assert count_cycles(build_D(6), 5) == 24
    assert count_cycles(build_D(7), 5) == 41
    assert count_cycles(build_D(10), 5) == 112
    for n in range(6, 15):
        if n != 7:
            assert count_cycles(build_D(n), 5) == 2 * n * n - 10 * n + 12


def test_E_pentagon_counts():
    # verified formula for this construction (the traditionally quoted
    # 2n^2-10n+8 overcounts by two; cross-checked against brute force here)
    for n in range(5, 13):
        g = build_E(n)
        expected = 2 * n * n - 10 * n + 6
        assert count_cycles(g, 5) == expected
        if n <= 9:
            assert count_cycles_bruteforce(g, 5) == expected


def test_E5_degenerates_to_D5():
    assert are_isomorphic(build_E(5), build_D(5))


def test_D_degree_profile():
    for n in (7, 9, 12):
        g = build_D(n)
        assert sum(1 for v in range(g.n) if g.degree(v) == 4) == n - 2


def test_A_graphs():
    a8 = build_A(8)
    assert count_cycles(a8, 5) == 60
    a11 = build_A(11)
    assert count_cycles(a11, 5) == 144
    assert not are_isomorphic(a8, build_D(8))
    assert not are_isomorphic(a11, build_D(11))
    with pytest.raises(GraphError):
        build_A(9)


def test_A_face_structure():
    # no degree-4 vertex; every face holds exactly one degree-3 vertex
    for n in (8, 11):
        g = build_A(n)
        assert 4 not in set(g.degree_sequence())
        emb = planar_embed(g)
        assert is_triangulation(emb)
        deg3 = {v for v in range(g.n) if g.degree(v) == 3}
        for face in emb.faces:
            assert sum(1 for v in face.boundary if v in deg3) == 1


def test_exceptional_catalog():
    for i in range(6):
        g = build_exceptional(i)
        assert g.n == EXCEPTIONAL_VERTICES[i]
        assert count_cycles(g, 5) == EXCEPTIONAL_C5[i]
        emb = planar_embed(g)
        assert isinstance(emb, Embedding) and is_triangulation(emb)
    assert are_isomorphic(build_exceptional(1), build_A(8))
    assert are_isomorphic(build_exceptional(5), build_A(11))
    with pytest.raises(GraphError):
        build_exceptional(6)


@pytest.mark.parametrize("index", range(6))
def test_catalog_rediscovery_is_unambiguous(index):
    """Each catalog graph is the unique no-degree-4 triangulation with its
    (n, pentagon count); ambiguity would make the frozen data unsound."""
    n = EXCEPTIONAL_VERTICES[index]
    c5 = EXCEPTIONAL_C5[index]
    found = discover_catalog_graphs(n, c5, corpus(n))
    assert len(found) == 1
    assert canonical_form(found[0]) == canonical_form(build_exceptional(index))


def test_family_spec_validation():
    with pytest.raises(GraphError):
        FamilySpec("D", 4)
    with pytest.raises(GraphError):
        FamilySpec("E", FAMILY_MAX_N + 1)
    with pytest.raises(GraphError):
        FamilySpec("A", 9)
    with pytest.raises(GraphError):
        FamilySpec("EXC", 7, 9)
    with pytest.raises(GraphError):
        FamilySpec("EXC", 8, 0)   # EXC0 has 7 vertices
    with pytest.raises(GraphError):
        FamilySpec("Z", 5)


def test_expand_dispatch():
    assert expand(FamilySpec("D", 9)).m == 21
    assert expand(FamilySpec("E", 7)).m == 15
    assert are_isomorphic(expand(FamilySpec("A", 8)), build_A(8))


def test_spec_from_name():
    assert spec_from_name("dn", 6) == FamilySpec("D", 6)
    assert spec_from_name("a11") == FamilySpec("A", 11)
    assert spec_from_name("exc3") == FamilySpec("EXC", 9, 3)
    with pytest.raises(GraphError):
        spec_from_name("dn")
    with pytest.raises(GraphError):
        spec_from_name("exc9")
    with pytest.raises(GraphError):
        spec_from_name("w5")
    # a fixed-size family takes only its own vertex count
    assert spec_from_name("a8", 8) == FamilySpec("A", 8)
    assert spec_from_name("exc2", 9) == FamilySpec("EXC", 9, 2)
    for name, n in (("a8", 9), ("a11", 8), ("exc2", 4), ("exc0", 8)):
        with pytest.raises(GraphError):
            spec_from_name(name, n)


def test_golden_catalog_file():
    entries = golden_catalog()
    assert len(entries) == 24
    seen = set()
    for entry in entries:
        assert set(entry) == {"family", "n", "graph6", "expected_c5"}
        assert verify_golden_entry(entry)
        seen.add((entry["family"], entry["n"]))
    assert ("a8", 8) in seen and ("a11", 11) in seen
    assert expected_c5(FamilySpec("D", 8)) == 60
