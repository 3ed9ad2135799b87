import pytest
from hypothesis import given, settings

from pentaplanar.embeddings import (
    Embedding,
    EmbeddingError,
    NotPlanar,
    Face,
    is_triangulation,
    neighborhood_cycle,
    planar_embed,
    triangular_faces,
)
from pentaplanar.families import build_D, build_E
from pentaplanar.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)

from .conftest import graphs


def test_k4_embedding():
    e = planar_embed(complete_graph(4))
    assert isinstance(e, Embedding)
    assert len(e.faces) == 4
    assert all(len(f) == 3 for f in e.faces)
    assert e.is_spherical


def test_kuratowski_graphs_rejected():
    assert isinstance(planar_embed(complete_graph(5)), NotPlanar)
    k33 = Graph(6, [(u, 3 + v) for u in range(3) for v in range(3)])
    assert isinstance(planar_embed(k33), NotPlanar)
    assert isinstance(planar_embed(complete_graph(6)), NotPlanar)


def test_petersen_rejected():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert isinstance(planar_embed(Graph(10, edges)), NotPlanar)


def test_euler_formula_on_classics():
    for g, f_expected in [
        (complete_graph(4), 4),
        (cycle_graph(5), 2),
        (path_graph(5), 1),
        (Graph(1, []), 0),
    ]:
        e = planar_embed(g)
        assert isinstance(e, Embedding)
        assert len(e.faces) == f_expected
        assert e.is_spherical


def test_is_triangulation_examples():
    d9 = planar_embed(build_D(9))
    assert is_triangulation(d9)
    assert build_D(9).m == 3 * 9 - 6
    pent = planar_embed(cycle_graph(5))
    assert not is_triangulation(pent)
    e7 = planar_embed(build_E(7))
    assert is_triangulation(e7)
    assert build_E(7).m == 15


def test_rotation_validation():
    g = complete_graph(3)
    with pytest.raises(EmbeddingError):
        Embedding(g, [(1, 2), (0,), (0, 1)])
    with pytest.raises(EmbeddingError):
        Embedding(g, [(1, 2), (0, 2)])


def test_neighborhood_cycle_examples():
    k4 = planar_embed(complete_graph(4))
    cyc = neighborhood_cycle(k4, 0)
    assert sorted(cyc) == [1, 2, 3]
    d8 = planar_embed(build_D(8))
    apex = neighborhood_cycle(d8, 6)
    assert sorted(apex) == list(range(6))
    octa = planar_embed(build_D(6))
    assert len(neighborhood_cycle(octa, 0)) == 4
    # Absent on non-triangulations
    assert neighborhood_cycle(planar_embed(cycle_graph(5)), 0) is None


def test_triangular_faces_examples():
    k4 = planar_embed(complete_graph(4))
    assert len(triangular_faces(k4)) == 4
    for n in (6, 9, 12):
        e = planar_embed(build_D(n))
        assert len(triangular_faces(e)) == 2 * n - 4
    hexagon = planar_embed(cycle_graph(6))
    assert triangular_faces(hexagon) == []


def test_face_type():
    f = Face((0, 1, 2))
    assert len(f) == 3 and 1 in f and 5 not in f
    assert f.vertex_set() == {0, 1, 2}


@settings(deadline=None, max_examples=120)
@given(graphs(min_n=3, max_n=9))
def test_triangulation_iff_edge_count(g):
    """For connected planar graphs, all-triangle faces <=> m = 3n - 6."""
    e = planar_embed(g)
    if not isinstance(e, Embedding):
        return
    from pentaplanar.embeddings import _is_connected

    if not _is_connected(g):
        return
    assert is_triangulation(e) == (g.m == 3 * g.n - 6)


@settings(deadline=None, max_examples=120)
@given(graphs(max_n=9))
def test_embedder_satisfies_euler_or_rejects(g):
    result = planar_embed(g)
    if isinstance(result, Embedding):
        assert result.is_spherical
        # spot check: every directed edge appears in exactly one face walk
        total = sum(len(f) for f in result.faces)
        assert total == 2 * g.m
    else:
        assert g.n >= 5  # planar up to n=4 always


def test_agreement_with_networkx_oracle():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randint(1, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(0, min(len(pairs), 3 * n))]
        g = Graph(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert isinstance(planar_embed(g), Embedding) == nx.check_planarity(nxg)[0]


def test_deterministic_embedding():
    g = build_D(9)
    assert planar_embed(g).rotations == planar_embed(g).rotations
