"""Seeded inputs and pinned golden values for the benchmark.

Everything here is the benchmark's own code: the query stream is built and
encoded without calling the package, so the program under test receives
only graph6 text.
"""

from __future__ import annotations

import math
import random

# Golden values pinned at the commit that defined the benchmark.
CLASS_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}
DIGESTS = {
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
MAXIMA = {5: 6, 6: 24, 7: 41, 8: 60, 9: 84, 10: 112, 11: 144}
EXTREMAL = {
    5: [["D", "D^{"]],
    6: [["D", "E]~o"]],
    7: [["D", "FLr~o"]],
    8: [["A", "G?]}~["], ["D", "GBjF~w"]],
    9: [["D", "H@UeF~}"]],
    10: [["D", "I?LTEB~~o"]],
    11: [["A", "J???~@nl}v_"], ["D", "J?CidB?~~~?"]],
}

QUERY_MIN_N = 12
QUERY_MAX_N = 60
QUERY_BLOCK = 50        # each block holds one D_n and one E_n member
QUERY_BLOCKS = 40
# D_n sizes cycle through three classes, so the p99 latency (the middle of
# the D_n members, which are the slowest 2% of the stream) sits inside one
# size class instead of jumping between sizes from run to run.
QUERY_D_SIZES = (20, 30, 40)
_GOLDEN = (math.sqrt(5) - 1) / 2


def expected_family_c5(family: str, n: int) -> int:
    """Pentagons of D_n and E_n for n >= 8 (the erratum-corrected E_n value)."""
    return 2 * n * n - 10 * n + (12 if family == "D" else 6)


def graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on 0..n-1 with n <= 62."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    bits = [rows[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [n + 63]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out).decode("ascii")


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def random_triangulation(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random n-vertex triangulation: vertex insertion into random
    faces, then random edge flips so the result is not a stacked graph."""
    third: dict[tuple[int, int], int] = {}   # directed edge -> apex of its left face
    adj = [set() for _ in range(n)]

    def add_face(a: int, b: int, c: int) -> None:
        third[(a, b)] = c
        third[(b, c)] = a
        third[(c, a)] = b

    for a, b, c in ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)):
        add_face(a, b, c)
    for u in range(4):
        adj[u] = {w for w in range(4) if w != u}
    for x in range(4, n):
        a, b = rng.choice(list(third))
        c = third[(a, b)]
        for e in ((a, b), (b, c), (c, a)):
            del third[e]
        add_face(a, b, x)
        add_face(b, c, x)
        add_face(c, a, x)
        adj[x] = {a, b, c}
        for w in (a, b, c):
            adj[w].add(x)
    darts = list(third)
    for _ in range(2 * n):
        a, b = rng.choice(darts)
        if (a, b) not in third:
            continue
        c, d = third[(a, b)], third[(b, a)]
        if d in adj[c]:
            continue
        for e in ((a, b), (b, c), (c, a), (b, a), (a, d), (d, b)):
            del third[e]
        add_face(a, d, c)
        add_face(d, b, c)
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].add(d)
        adj[d].add(c)
        darts.append((c, d))
    return [(u, v) for u in range(n) for v in adj[u] if u < v]


def family_edges(family: str, n: int) -> list[tuple[int, int]]:
    """D_n: cycle on n-2 vertices plus two non-adjacent apexes; E_n: a path
    plus two adjacent apexes."""
    k = n - 2
    ring = [(i, (i + 1) % k) for i in range(k)] if family == "D" else [
        (i, i + 1) for i in range(k - 1)
    ]
    apexes = [(i, k) for i in range(k)] + [(i, k + 1) for i in range(k)]
    return ring + apexes + ([(k, k + 1)] if family == "E" else [])


def e_size(index: int) -> int:
    """n of the index-th E_n member: a golden-ratio sequence over 12..60,
    so every prefix of the stream has an even spread of sizes."""
    span = QUERY_MAX_N - QUERY_MIN_N + 1
    return QUERY_MIN_N + int(span * ((index * _GOLDEN) % 1.0))


def query_stream(seed: int) -> list[dict]:
    """The query workload: graph6 text plus how each graph was built.

    Kinds: "tri" (random triangulation), "deleted" (one or two edges
    removed, still planar), "added" (one edge added, so m = 3n - 5 and the
    graph cannot be planar), "D" and "E" (family members, relabeled).
    """
    rng = random.Random(seed)
    out = []
    for block in range(QUERY_BLOCKS):
        slots = ["ordinary"] * (QUERY_BLOCK - 2) + ["D", "E"]
        rng.shuffle(slots)
        for kind in slots:
            if kind in ("D", "E"):
                n = QUERY_D_SIZES[block % 3] if kind == "D" else e_size(block)
                edges = family_edges(kind, n)
            else:
                n = rng.randint(QUERY_MIN_N, QUERY_MAX_N)
                edges = random_triangulation(n, rng)
                kind = rng.choice(("tri", "tri", "deleted", "added"))
                if kind == "deleted":
                    for _ in range(rng.randint(1, 2)):
                        edges.pop(rng.randrange(len(edges)))
                elif kind == "added":
                    present = set(edges)
                    while True:
                        u, v = sorted(rng.sample(range(n), 2))
                        if (u, v) not in present:
                            edges.append((u, v))
                            break
            out.append({
                "kind": kind,
                "n": n,
                "planar": kind != "added",
                "g6": graph6(n, relabel(n, edges, rng)),
            })
    return out
