import pytest
from hypothesis import given

from pentaplanar.graphs import (
    Graph,
    GraphError,
    common_neighbors,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_path_forest,
    path_graph,
)

from .conftest import graphs


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(-1, [])
    # a relabeling that misses a vertex, names a non-vertex or has the wrong
    # length
    for perm in ({0: 1, 1: 0}, {0: 1, 1: 0, 2: "x"}, [0, 1, 2.0], [1, 0]):
        with pytest.raises(GraphError):
            complete_graph(3).relabel(perm)


def test_degenerate_graphs_are_legal():
    assert Graph(0, []).m == 0
    g1 = Graph(1, [])
    assert g1.degree(0) == 0
    assert g1.edges() == []


def test_degree_examples():
    assert complete_graph(4).degree(0) == 3
    # double-wheel apex (vertex n-2) touches every cycle vertex
    from pentaplanar.families import build_D

    d10 = build_D(10)
    assert d10.degree(8) == 8
    assert Graph(1, []).degree(0) == 0
    with pytest.raises(GraphError):
        Graph(2, []).degree(5)


def test_common_neighbors_examples():
    k4 = complete_graph(4)
    assert common_neighbors(k4, 0, 1) == {2, 3}
    p3 = path_graph(3)
    assert common_neighbors(p3, 0, 2) == {1}
    from pentaplanar.families import build_D

    d8 = build_D(8)
    assert common_neighbors(d8, 6, 7) == set(range(6))
    with pytest.raises(GraphError):
        common_neighbors(k4, 1, 1)


def test_induced_subgraph_examples():
    k5 = complete_graph(5)
    sub, relabel = induced_subgraph(k5, {1, 2, 4})
    assert sub == complete_graph(3)
    assert relabel == {1: 0, 2: 1, 4: 2}

    from pentaplanar.families import build_D

    d8 = build_D(8)
    ring, _ = induced_subgraph(d8, range(6))
    assert ring == cycle_graph(6)

    empty, _ = induced_subgraph(k5, set())
    assert empty.n == 0


def test_is_path_forest_examples():
    r = is_path_forest(cycle_graph(4))
    assert not r.ok
    two_edges = Graph(4, [(0, 1), (2, 3)])
    r = is_path_forest(two_edges)
    assert r.ok and not r.single_path and len(r.paths) == 2
    r = is_path_forest(path_graph(4))
    assert r.ok and r.single_path and r.paths == ((0, 1, 2, 3),)
    # empty graph: a forest of zero paths, not a single path
    r = is_path_forest(Graph(0, []))
    assert r.ok and not r.single_path
    # max degree 3 star is not a path forest
    assert not is_path_forest(Graph(4, [(0, 1), (0, 2), (0, 3)])).ok


@given(graphs(max_n=9))
def test_common_neighbors_never_contains_endpoints(g):
    for u, v in g.edges():
        cn = common_neighbors(g, u, v)
        assert u not in cn and v not in cn


@given(graphs(max_n=9))
def test_induced_on_everything_is_identity(g):
    h, relabel = induced_subgraph(g, range(g.n))
    assert h == g
    assert all(relabel[v] == v for v in range(g.n))


@given(graphs(max_n=9))
def test_path_forest_equivalent_definition(g):
    # acyclic (m = n - components) with max degree <= 2
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
            break
        parent[ru] = rv
    expected = acyclic and all(g.degree(v) <= 2 for v in range(g.n))
    assert is_path_forest(g).ok == expected
