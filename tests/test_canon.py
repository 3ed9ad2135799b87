import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaplanar import canon
from pentaplanar.canon import _canonical_leaf, _refine, are_isomorphic, canonical_form
from pentaplanar.enumeration import corpus
from pentaplanar.families import build_A, build_D, build_E
from pentaplanar.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    to_graph6,
)

from .conftest import graphs
from .test_embeddings import _random_triangulation


def test_known_distinctions():
    assert canonical_form(cycle_graph(5)) != canonical_form(path_graph(5))
    assert canonical_form(build_D(8)) != canonical_form(build_A(8))
    assert canonical_form(build_D(11)) != canonical_form(build_A(11))


def test_k4_relabelings_identical():
    k4 = complete_graph(4)
    base = canonical_form(k4)
    for perm in itertools.permutations(range(4)):
        assert canonical_form(k4.relabel(list(perm))) == base


def test_canonical_form_parses_back_to_same_class():
    g = build_D(9)
    h = parse_graph6(canonical_form(g))
    assert are_isomorphic(g, h)


def test_symmetric_worst_cases_terminate_fast(monkeypatch):
    # search nodes (one `_refine` call each) stay within these counts:
    # complete and empty graphs stop at the root by the uniform shortcut,
    # and orbit pruning keeps relabeled D_n and E_n flat in n (the unpruned
    # search visits 3n - 5 nodes of D_n)
    calls = []
    refine = canon._refine

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    rng = random.Random(41)
    bounds = {(build_D, 20): 7, (build_D, 40): 7, (build_D, 60): 10,
              (build_E, 20): 3, (build_E, 40): 3, (build_E, 60): 3}
    cases = [(_relabeled(build(n), rng), bound) for (build, n), bound in bounds.items()]
    cases += [(complete_graph(14), 1), (Graph(14, []), 1), (cycle_graph(14), 7)]
    for g, bound in cases:
        calls.clear()
        assert parse_graph6(canonical_form(g)).n == g.n
        assert len(calls) <= bound, (to_graph6(g), len(calls))


def test_canonical_order_is_permutation():
    g = build_D(7)
    order = _canonical_leaf(g)[1]
    assert sorted(order) == list(range(g.n))


@settings(deadline=None, max_examples=80)
@given(graphs(max_n=9), st.randoms(use_true_random=False))
def test_relabeling_invariance(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=7), graphs(max_n=7))
def test_exactness_against_networkx(g, h):
    nx = pytest.importorskip("networkx")
    mine = are_isomorphic(g, h)
    a = nx.Graph()
    a.add_nodes_from(range(g.n))
    a.add_edges_from(g.edges())
    b = nx.Graph()
    b.add_nodes_from(range(h.n))
    b.add_edges_from(h.edges())
    assert mine == nx.is_isomorphic(a, b)


# ---------------------------------------------------------------------------
# Frozen canonical forms and the unpruned reference search
# ---------------------------------------------------------------------------

# sha256 of the sorted canonical_form lines of corpus(n), joined by newlines
CORPUS_FORM_DIGESTS = {
    4: "d65ffb1d8d01ba8a6be14162941989d6f211d5c778d7f4fe75935f77dd1cadbe",
    5: "4ad35cb4e0853ff73df4e9c9d8b814dcc2cf63062809218c64bb46013dc6e5e4",
    6: "93d5b002de63b757ba55ae04903675c29c82d279946b2353f26fa753df4934ff",
    7: "8294bd1a860757d04c9f3b0127b1377ed3eaeda1be51077f19eb18013b2c4658",
    8: "cbf258178d68d35099072b815fff169712d657d9661eef6c4a226e7fd5f3a775",
    9: "2f1bc5067b9782eb24bd9dad6fdb274e3e0384ba154117e729b4f0292eebe034",
    10: "c12154c652d052d9b0455dfa1790a706a3ab92eb7dcabe83ecf4866801e91bac",
}

D_FORMS = {
    5: "D^{",
    6: "E]~o",
    7: "FLr~o",
    8: "GBjF~w",
    9: "H@UeF~}",
    10: "I?LTEB~~o",
    11: "J?CidB?~~~?",
    12: "K??XQa_oF~~}",
    20: "S???????WD?gA_D?D?A_?g?B??F~~~~~w",
    30: "]?????????????????W?I?A_?S?@O?A_?A_?@O??S??A_??I???S???S???E????~~~~~~~~~o",
    40: (
        "g???????????????????????????????K??I??D??@O??I???g??@O??@O???g???I???@O???D????"
        "I????I????D????@O????I?????g?????o?????^~~~~~~~~~~~}"
    ),
    60: (
        "{????????????????????????????????????????????????????????????????????????W???@O"
        "???A_???A_???@O????S????A_????I?????S?????S?????I?????A_?????S?????@O?????A_????"
        "?A_?????@O??????S??????A_??????I???????S???????S???????I???????A_???????S???????"
        "@O???????A_???????A_????????o????????F~~~~~~~~~~~~~~~~~~}"
    ),
}

E_FORMS = {
    8: "G@Uf~{",
    9: "H?LTF~~",
    10: "I?CidB~~w",
    11: "J??XQa_~~~_",
    12: "K??GhPOgF~~~",
    30: "]?????????????????G?D?@O?I??g?@O?@O??g??I??@O??D???I???I???D????~~~~~~~~~w",
    60: (
        "{????????????????????????????????????????????????????????????????????????G????g"
        "???@O???@O????g????I????@O????D?????I?????I?????D?????@O?????I??????g?????@O????"
        "?@O??????g??????I??????@O??????D???????I???????I???????D???????@O???????I???????"
        "?g???????@O???????@O????????g????????F~~~~~~~~~~~~~~~~~~~"
    ),
}


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def _cube() -> Graph:
    return Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


def _complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_form_is_the_graph6_of_the_canonical_relabeling():
    # canonical_form encodes the winning leaf's code rows directly; they
    # must be the rows of the graph relabeled by the leaf's vertex order
    rng = random.Random(37)
    graphs = [e.graph for n in range(4, 10) for e in corpus(n)]
    graphs += [_relabeled(build(n), rng) for build in (build_D, build_E)
               for n in range(5, 61)]
    for _ in range(200):
        n = rng.randint(0, 30)
        p = rng.uniform(0.2, 0.8)
        graphs.append(Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if rng.random() < p]))
    for g in graphs:
        perm = {v: i for i, v in enumerate(_canonical_leaf(g)[1])}
        assert canonical_form(g) == to_graph6(g.relabel(perm)), to_graph6(g)


def test_pinned_corpus_form_digests():
    for n, digest in CORPUS_FORM_DIGESTS.items():
        lines = sorted(canonical_form(e.graph) for e in corpus(n))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, n


def test_pinned_family_forms():
    rng = random.Random(11)
    for build, forms in ((build_D, D_FORMS), (build_E, E_FORMS)):
        for n, form in forms.items():
            assert canonical_form(build(n)) == form, (build.__name__, n)
            assert canonical_form(_relabeled(build(n), rng)) == form, (build.__name__, n)
    assert canonical_form(build_A(8)) == "G?]}~["
    assert canonical_form(build_A(11)) == "J???~@nl}v_"
    assert canonical_form(_petersen()) == "I?LRCecq?"


def _canonical_order_reference(g: Graph) -> list[int]:
    """The search without automorphism pruning: every leaf is visited, and
    the first leaf in depth-first order with the least code wins."""
    n = g.n
    if n == 0:
        return []
    rows = g.bitrows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    best: list = [None, None]

    def consider(order: list[int]) -> None:
        inv = {v: i for i, v in enumerate(order)}
        code = tuple(sum(1 << inv[w] for w in g.neighbors[v]) for v in order)
        if best[0] is None or code < best[0]:
            best[:] = [code, order]

    def search(cells: list[list[int]]) -> None:
        cells = _refine_reference(rows, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), -1)
        if target < 0:
            consider([c[0] for c in cells])
            return
        if _uniform_reference(rows, cells):
            consider([v for c in cells for v in c])
            return
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            search(cells[:target] + [[v], rest] + cells[target + 1 :])

    search([by_degree[d] for d in sorted(by_degree)])
    return best[1]


def _refine_reference(rows, cells: list[list[int]]) -> list[list[int]]:
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        out: list[list[int]] = []
        for cell in cells:
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((rows[v] & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            out += [buckets[sig] for sig in sorted(buckets)]
        if len(out) == len(cells):
            return cells
        cells = out


def _uniform_reference(rows, cells: list[list[int]]) -> bool:
    masks = [sum(1 << v for v in c) for c in cells]
    for i, cell in enumerate(cells):
        for j, other in enumerate(cells):
            links = sum((rows[v] & masks[j]).bit_count() for v in cell)
            full = len(cell) * (len(other) - (i == j))
            if links not in (0, full):
                return False
    return True


def _degree_cells(g: Graph) -> list[list[int]]:
    by_degree: dict[int, list[int]] = {}
    for v in range(g.n):
        by_degree.setdefault(g.bitrows[v].bit_count(), []).append(v)
    return [by_degree[d] for d in sorted(by_degree)]


def _is_equitable(rows, cells: list[list[int]]) -> bool:
    masks = [sum(1 << v for v in c) for c in cells]
    return all(len({(rows[v] & m).bit_count() for v in cell}) == 1
               for cell in cells for m in masks)


def _assert_refine_matches_reference(graphs) -> None:
    # at the root, and at every child of the root's first non-singleton
    # cell: a child's parent partition is stable, so `_refine` scatters its
    # first round from the individualized vertex alone
    for g in graphs:
        rows = g.bitrows
        root = _degree_cells(g)
        stable = _refine(g, root)
        assert stable == _refine_reference(rows, root), to_graph6(g)
        assert _is_equitable(rows, stable), to_graph6(g)
        target = next((i for i, c in enumerate(stable) if len(c) > 1), None)
        if target is None:
            continue
        for v in stable[target]:
            rest = [w for w in stable[target] if w != v]
            cells = stable[:target] + [[v], rest] + stable[target + 1 :]
            got = _refine(g, cells, v)
            assert got == _refine_reference(rows, cells), (to_graph6(g), v)
            assert _is_equitable(rows, got), (to_graph6(g), v)


def _circulant(n: int, steps: tuple[int, ...]) -> Graph:
    return Graph(n, sorted({(min(i, (i + s) % n), max(i, (i + s) % n))
                            for i in range(n) for s in steps}))


def test_refine_matches_reference_on_families():
    rng = random.Random(19)
    _assert_refine_matches_reference(
        _relabeled(build(n), rng)
        for n in (*range(5, 31), 40, 50, 60)
        for build in (build_D, build_E)
    )


def test_refine_matches_reference_on_circulants():
    # vertex-transitive: the root partition is one cell, and each child
    # splits it one distance layer per round
    _assert_refine_matches_reference(
        _circulant(n, steps)
        for steps in ((1, 2), (1, 3), (1, 2, 4))
        for n in range(2 * max(steps) + 1, 31)
    )


def test_refine_matches_reference_on_corpus_and_random_graphs():
    rng = random.Random(23)
    graphs = [e.graph for n in range(4, 10) for e in corpus(n)]
    graphs += [_relabeled(g, rng) for g in graphs]
    for _ in range(150):
        n = rng.randint(1, 20)
        p = rng.uniform(0.1, 0.9)
        graphs.append(Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if rng.random() < p]))
    graphs += [Graph(n, _random_triangulation(n, rng)) for n in range(30, 61, 3)]
    _assert_refine_matches_reference(graphs)


def _assert_orders_match(graphs) -> None:
    for g in graphs:
        assert _canonical_leaf(g)[1] == _canonical_order_reference(g), to_graph6(g)


def test_order_matches_reference_on_corpus():
    rng = random.Random(3)
    embs = [e for n in range(4, 10) for e in corpus(n)]
    _assert_orders_match(e.graph for e in embs)
    _assert_orders_match(_relabeled(e.graph, rng) for e in embs)


def test_order_matches_reference_on_families():
    rng = random.Random(5)
    _assert_orders_match(
        _relabeled(build(n), rng)
        for n in range(5, 41)
        for build in (build_D, build_E)
    )


def test_order_matches_reference_on_classics():
    rng = random.Random(7)
    k33 = _complete_multipartite(3, 3)
    multipartite = [
        _complete_multipartite(*sizes)
        for sizes in ((2, 2, 2), (1, 2, 3), (3, 3, 3), (2, 3, 4), (1, 1, 5), (4, 4))
    ]
    # sparse ones too: matchings plus isolated vertices, disjoint cycles
    sparse = [
        Graph(9, [(0, 1), (2, 3), (4, 5)]),
        Graph(7, [(0, 1), (2, 3)]),
        Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
        Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    ]
    classics = [_petersen(), _cube(), k33, *multipartite, *sparse, cycle_graph(12)]
    _assert_orders_match(classics)
    _assert_orders_match(_relabeled(g, rng) for g in classics for _ in range(3))


def test_order_matches_reference_on_random_graphs():
    # p stays in 0.2..0.8: at the ends, G(n, p) is often a matching plus
    # isolated vertices, where the unpruned reference visits up to 10^6 leaves
    rng = random.Random(13)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 14)
        p = rng.uniform(0.2, 0.8)
        graphs.append(Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if rng.random() < p]))
    _assert_orders_match(graphs)


def test_order_matches_reference_on_regular_graphs():
    # refinement cannot split a regular graph, so the search meets leaves of
    # different codes: pruning by a map that is not an automorphism shows here
    rng = random.Random(17)
    graphs = []
    while len(graphs) < 60:
        d = rng.choice((3, 4))
        n = rng.choice([k for k in range(d + 2, 15) if k * d % 2 == 0])
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            graphs.append(Graph(n, sorted(pairs)))
    _assert_orders_match(graphs)


def _shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set +-(0,1), +-(1,0), +-(1,1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                      if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


def _rook_4x4() -> Graph:
    return Graph(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                      if u // 4 == v // 4 or u % 4 == v % 4])


def _disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


def test_symmetric_unions_have_label_independent_forms():
    # two graphs with the parameters (16, 6, 2, 2): refinement cannot tell
    # their vertices apart, and a vertex's stabilizer splits the cells it
    # leaves, which is where pruning by an automorphism that moves the
    # node's individualized vertices loses the least leaf.  The unpruned
    # reference takes minutes here, so the form is checked for independence
    # from the labeling instead.
    rng = random.Random(29)
    shrikhande = _shrikhande()
    for g in (_disjoint_union(shrikhande, shrikhande),
              _disjoint_union(_rook_4x4(), shrikhande)):
        form = canonical_form(g)
        for _ in range(12):
            assert canonical_form(_relabeled(g, rng)) == form
    rng = random.Random(31)
    _assert_orders_match(_relabeled(shrikhande, rng) for _ in range(3))
