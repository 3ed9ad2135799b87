import json

import pytest
from hypothesis import given, settings

from pentaplanar.counting import (
    apex_exists,
    count_cycles,
    count_cycles_bruteforce,
    count_face_paths3,
    count_paths3,
    cycle_report,
    g_formula,
)
from pentaplanar.families import build_D, build_E
from pentaplanar.graphs import Graph, GraphError, complete_graph, cycle_graph

from .conftest import graphs


def k5_minus_edge():
    return Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                     if (u, v) != (3, 4)])


def test_count_cycles_goldens():
    assert count_cycles(complete_graph(5), 5) == 12
    assert count_cycles(k5_minus_edge(), 5) == 6
    assert count_cycles(cycle_graph(5), 5) == 1
    assert count_cycles(build_D(6), 5) == 24   # octahedron
    assert count_cycles(build_D(7), 5) == 41
    # the path-plus-joined-apexes family: 2n^2 - 10n + 6 (brute-confirmed)
    e6 = build_E(6)
    assert count_cycles(e6, 5) == 18
    assert count_cycles_bruteforce(e6, 5) == 18
    with pytest.raises(GraphError):
        count_cycles(complete_graph(4), 6)


def test_bruteforce_goldens():
    k4 = complete_graph(4)
    assert count_cycles_bruteforce(k4, 3) == 4
    assert count_cycles_bruteforce(k4, 4) == 3
    assert count_cycles_bruteforce(Graph(6, []), 5) == 0
    with pytest.raises(GraphError):
        count_cycles_bruteforce(k4, 2)


def test_count_paths3_examples():
    k4 = complete_graph(4)
    assert count_paths3(k4, 0, 1) == 2            # attains 2(k-3)
    octa = build_D(6)
    assert count_paths3(octa, 0, 1) == 5          # adjacent octahedron pair
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert count_paths3(star, 0, 1) == 0
    with pytest.raises(GraphError):
        count_paths3(k4, 2, 2)


def test_count_face_paths3_examples():
    k4 = complete_graph(4)
    assert count_face_paths3(k4, (0, 1, 2)) == 6
    g = k5_minus_edge()
    assert count_face_paths3(g, (0, 1, 3)) == 12
    assert count_face_paths3(complete_graph(3), (0, 1, 2)) == 0
    with pytest.raises(GraphError):
        count_face_paths3(k4, (0, 1, 1))
    with pytest.raises(GraphError):
        count_face_paths3(cycle_graph(4), (0, 1, 2))


def test_apex_exists_examples():
    k4 = complete_graph(4)
    assert apex_exists(k4, (0, 1, 2))
    g = k5_minus_edge()
    assert apex_exists(g, (0, 1, 3))              # vertex 2 sees all three
    pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not apex_exists(pendant, (0, 1, 2))


def test_g_formula():
    assert g_formula(5) == 12
    assert g_formula(7) == 41
    assert g_formula(8) == 60
    assert g_formula(6) == 24
    with pytest.raises(GraphError):
        g_formula(4)


def test_report_handshakes_and_json():
    g = build_D(8)
    rep = cycle_report(g)
    assert rep.c5 == 60
    assert sum(rep.per_vertex_c5) == 5 * rep.c5
    assert sum(cnt for _, _, cnt in rep.per_edge_c5) == 5 * rep.c5
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["c5"] == 60
    assert len(payload["per_edge_c5"]) == g.m
    assert len(payload["per_vertex_c5"]) == g.n


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=9))
def test_counter_matches_bruteforce(g):
    for k in (3, 4, 5):
        assert count_cycles(g, k) == count_cycles_bruteforce(g, k)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=9))
def test_handshake_identities(g):
    rep = cycle_report(g)
    assert sum(rep.per_vertex_c5) == 5 * rep.c5
    assert sum(cnt for _, _, cnt in rep.per_edge_c5) == 5 * rep.c5
    assert all(cnt >= 0 for _, _, cnt in rep.per_edge_c5)


@settings(deadline=None, max_examples=40)
@given(graphs(min_n=2, max_n=8))
def test_adding_an_edge_never_decreases_counts(g):
    base = [count_cycles(g, k) for k in (3, 4, 5)]
    present = set(g.edges())
    candidates = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in present
    ]
    for u, v in candidates[:5]:
        grown = Graph(g.n, list(present) + [(u, v)])
        for k, b in zip((3, 4, 5), base):
            assert count_cycles(grown, k) >= b


def _c5_per_edge_bruteforce(g):
    """Per-edge 5-cycle tally, each cycle listed once: from its least
    vertex s, through vertices above s, with its second vertex below its
    last."""
    tally = {e: 0 for e in g.edges()}

    def extend(path):
        if len(path) == 5:
            if path[1] < path[4] and g.has_edge(path[4], path[0]):
                for a, b in zip(path, path[1:] + path[:1]):
                    tally[(min(a, b), max(a, b))] += 1
            return
        for w in g.neighbors[path[-1]]:
            if w > path[0] and w not in path:
                extend(path + [w])

    for s in range(g.n):
        extend([s])
    return [tally[e] for e in g.edges()]


def _assert_report_matches_oracles(g):
    rep = cycle_report(g)
    assert (rep.c3, rep.c4, rep.c5) == tuple(
        count_cycles_bruteforce(g, k) for k in (3, 4, 5)
    )
    assert [(u, v) for u, v, _ in rep.per_edge_c5] == g.edges()
    assert [cnt for _, _, cnt in rep.per_edge_c5] == _c5_per_edge_bruteforce(g)


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=9))
def test_report_matches_bruteforce(g):
    _assert_report_matches_oracles(g)


def test_report_matches_bruteforce_on_families():
    for n in (5, 6, 8, 11):
        _assert_report_matches_oracles(build_D(n))
        _assert_report_matches_oracles(build_E(n))
