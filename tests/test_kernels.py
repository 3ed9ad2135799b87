"""Each built backend against the references, on the input contract that
`kernels` states: the canonical embedding code against a full-minimum
reference that has neither early abort nor start-edge pruning, and the
per-edge cycle and path counts (`edge_profile`, `paths3_per_edge` and the
totals summed from them) against the 5-path loop and the 3-path loop.  The
dispatcher reaches the compiled kernels for n <= 64 when they are built, so
the backends agree because each matches the references."""

import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from pentaplanar import kernels
from pentaplanar.embeddings import planar_embed
from pentaplanar.enumeration import corpus, split_vertex
from pentaplanar.families import build_D, build_E
from pentaplanar.graphs import Graph, complete_graph

from .conftest import graphs
from .test_embeddings import _query_shaped

needs_compiled = pytest.mark.skipif(
    kernels._fastkern is None, reason="compiled kernel not built"
)

pure = kernels._purekern

# every importable backend: the compiled one too, where it is built
built = [mod for mod in (pure, kernels._fastkern) if mod is not None]


def fast():
    return kernels._fastkern


def _families(max_n):
    for n in range(5, max_n + 1):
        yield build_D(n)
        yield build_E(n)


@needs_compiled
@settings(deadline=None)
@given(graphs())
def test_large_graphs_fall_back_to_pure(g):
    # the dispatcher must route n > 64 to the pure backend transparently
    big = 70
    rows = tuple(list(g.bitrows) + [0] * (big - g.n))
    profile = pure.edge_profile(rows)
    assert kernels.edge_profile(rows) == profile
    assert kernels.cycle_counts(rows) == kernels.cycle_totals(profile)


def test_embedding_code_requires_connected():
    # disconnected twice, then not symmetric: 0 lists 1 but 1 does not list 0
    for rot in (((), ()), ((1,), (0,), (3,), (2,)), ((1,), (2,), (0,))):
        for mod in built:
            with pytest.raises(ValueError):
                mod.embedding_min_code(rot)


def _min_code_or_error(mod, rot):
    try:
        return mod.embedding_min_code(rot)
    except ValueError:
        return ValueError


@needs_compiled
def test_embedding_code_parity_on_damaged_rotations():
    # one rotation entry of a child redirected to another vertex: both
    # backends raise ValueError on the same systems, or give the same code
    rng = random.Random(5)
    raised = 0
    for rot in rng.sample(list(_children(9)), 2000):
        n = len(rot)
        x = rng.randrange(n)
        k = rng.randrange(len(rot[x]))
        damaged = list(rot)
        damaged[x] = rot[x][:k] + (rng.randrange(n),) + rot[x][k + 1 :]
        damaged = tuple(damaged)
        want = _min_code_or_error(pure, damaged)
        assert _min_code_or_error(fast(), damaged) == want, damaged
        raised += want is ValueError
    assert 0 < raised < 2000


@needs_compiled
def test_backend_names():
    forced_pure = os.environ.get("PENTAPLANAR_KERNEL", "auto").lower() == "pure"
    assert kernels.backend_name() == ("pure" if forced_pure else "compiled")
    exported = {name for name in dir(fast()) if not name.startswith("_")}
    assert exported == {"edge_profile", "embedding_min_code", "paths3_per_edge"}


def _full_min_code(rot, n):
    """Reference: the minimum of the complete breadth-first code over every
    start edge whose tail has minimum degree, in both directions."""
    degs = [len(r) for r in rot]
    dmin = min(degs)
    best = None
    for u in range(n):
        if degs[u] != dmin:
            continue
        for v in rot[u]:
            for rev in (False, True):
                code = _full_bfs_code(rot, n, u, v, rev)
                if best is None or code < best:
                    best = code
    return best


def _full_bfs_code(rot, n, su, sv, rev):
    lab = [-1] * n
    lab[su], lab[sv] = 0, 1
    order = [su, sv]
    entry = [0] * n
    entry[su], entry[sv] = sv, su
    nxt = 2
    code = []
    step = -1 if rev else 1
    for x in order:
        r = rot[x]
        d = len(r)
        pos = r.index(entry[x])
        code.append(d)
        for k in range(d):
            w = r[(pos + step * k) % d]
            lw = lab[w]
            if lw < 0:
                lab[w] = lw = nxt
                nxt += 1
                order.append(w)
                entry[w] = x
            code.append(lw)
    return tuple(code)


def _children(max_parent_n):
    for n in range(4, max_parent_n + 1):
        for emb in corpus(n):
            rot = emb.rotations
            for v, rot_v in enumerate(rot):
                for i in range(len(rot_v)):
                    for j in range(i + 1, len(rot_v)):
                        yield split_vertex(rot, v, i, j)


def test_min_code_equals_full_minimum_on_every_child():
    children = list(_children(10))
    assert len(children) == 29444
    for rot in children:
        want = bytes(_full_min_code(rot, len(rot)))
        for mod in built:
            assert mod.embedding_min_code(rot) == want


def test_min_code_equals_full_minimum_on_relabelings_and_reflections():
    rng = random.Random(31)
    for rot in rng.sample(list(_children(9)), 600):
        n = len(rot)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [()] * n
        for v, r in enumerate(rot):
            relabeled[perm[v]] = tuple(perm[w] for w in r)
        mirrored = tuple(r[::-1] for r in relabeled)
        code = pure.embedding_min_code(rot)
        for variant in (tuple(relabeled), mirrored):
            assert bytes(_full_min_code(variant, n)) == code
            for mod in built:
                assert mod.embedding_min_code(variant) == code


@needs_compiled
def test_min_code_is_bytes_and_equal_on_every_backend():
    rots = [((),) * n for n in (0, 1)]
    rots += [e.rotations for n in range(4, 10) for e in corpus(n)]
    rots += [planar_embed(g).rotations for g in _families(64)]
    for rot in rots:
        codes = [mod.embedding_min_code(rot) for mod in built]
        assert all(type(code) is bytes for code in codes), rot
        assert codes[0] == codes[1], rot


def test_min_code_of_no_vertex_and_of_one():
    # the returns before any start edge, on the dispatcher and on every
    # built backend
    for mod in [kernels, *built]:
        assert mod.embedding_min_code(()) == b""
        assert mod.embedding_min_code(((),)) == b"\x00"


def _cycle(n):
    return tuple(((v - 1) % n, (v + 1) % n) for v in range(n))


def test_min_code_takes_at_most_256_vertices():
    # one byte per entry: at n = 256 the largest label is 255, and above it
    # the pure kernel (which the dispatcher uses for n > 64) raises rather
    # than return a code with wrapped entries
    code = kernels.embedding_min_code(_cycle(256))
    assert max(code) == 255 and code == bytes(_full_min_code(_cycle(256), 256))
    for n in (257, 300):
        with pytest.raises(ValueError):
            pure.embedding_min_code(_cycle(n))
        with pytest.raises(ValueError):
            kernels.embedding_min_code(_cycle(n))


# The pure edge_profile counts in closed form; these are the loops it and
# the totals summed from it replaced, kept verbatim as references.


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle_counts_reference(rows: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """Exact numbers of 3-, 4- and 5-cycles via per-edge path counting."""
    t3 = t4 = t5 = 0
    for u in range(n):
        ru = rows[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            t3 += (ru & rv).bit_count()
            mask_u = ~(1 << u)
            mask_uv = mask_u & ~(1 << v)
            for a in _bits(ru & ~(1 << v)):
                ra = rows[a]
                t4 += (ra & rv & mask_u).bit_count()
                not_a = mask_uv & ~(1 << a)
                for c in _bits(rv & mask_u & ~(1 << a)):
                    t5 += (ra & rows[c] & not_a).bit_count()
    return t3 // 3, t4 // 4, t5 // 5


def _c5_per_edge_reference(rows: tuple[int, ...], n: int) -> list[int]:
    """For each edge {u,v}: number of 5-cycles using that edge."""
    out = []
    for u in range(n):
        ru = rows[u]
        for v in _bits(ru >> (u + 1) << (u + 1)):
            rv = rows[v]
            mask_uv = ~(1 << u) & ~(1 << v)
            total = 0
            for a in _bits(ru & ~(1 << v)):
                ra = rows[a]
                not_a = mask_uv & ~(1 << a)
                for c in _bits(rv & ~(1 << u) & ~(1 << a)):
                    total += (ra & rows[c] & not_a).bit_count()
            out.append(total)
    return out


def _assert_closed_forms(g):
    rows, n = g.bitrows, g.n
    # the pure paths3_per_edge keeps the 3-path loop
    t3 = [(rows[u] & rows[v]).bit_count() for u, v in g.edges()]
    c5, p3 = _c5_per_edge_reference(rows, n), pure.paths3_per_edge(rows)
    assert pure.edge_profile(rows) == (t3, p3, c5), g.edges()
    # the dispatcher; graphs with n > 64 take the pure fallback
    assert kernels.edge_profile(rows) == (t3, p3, c5), g.edges()
    assert kernels.cycle_counts(rows) == _cycle_counts_reference(rows, n), g.edges()
    assert kernels.c5_per_edge(rows) == c5, g.edges()
    assert kernels.paths3_per_edge(rows) == p3, g.edges()


def test_closed_forms_match_loop_on_corpus():
    for n in range(4, 11):
        for emb in corpus(n):
            _assert_closed_forms(emb.graph)


def test_closed_forms_match_loop_on_families():
    # D_n and E_n cross the 64-bit row boundary; the apexes of D_80 have
    # codegree 78 with each other, which takes seven planes
    for g in _families(80):
        _assert_closed_forms(g)


def test_closed_forms_match_loop_on_random_graphs():
    # p spans (0, 1); n is capped at 20 p^(-3/4), which bounds the loop
    # reference's cost (about n^4 p^3) per graph and lets sparse graphs
    # reach n = 80
    rng = random.Random(8)
    for _ in range(300):
        p = rng.random()
        n = rng.randint(0, min(80, int(20 * p ** -0.75)))
        pairs = combinations(range(n), 2)
        _assert_closed_forms(Graph(n, [e for e in pairs if rng.random() < p]))
    # irregular near-triangulations with n = 30..60, shaped like the query
    # stream, and D_n, E_n under random relabelings
    for g in _query_shaped(20, seed=13):
        _assert_closed_forms(g)


def test_closed_forms_match_loop_on_tiny_and_complete_graphs():
    for n in range(4):
        pairs = list(combinations(range(n), 2))
        for keep in range(1 << len(pairs)):
            _assert_closed_forms(Graph(n, [e for i, e in enumerate(pairs) if keep >> i & 1]))
    for n in range(1, 13):
        _assert_closed_forms(complete_graph(n))


@given(graphs(max_n=13))
def test_closed_forms_match_loop(g):
    _assert_closed_forms(g)
