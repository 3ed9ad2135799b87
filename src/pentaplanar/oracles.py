"""The oracles: checks that re-derive or audit what the generator and the
catalog build, with no shared machinery.

Correctness is defined by oracle equivalence:
`bruteforce_triangulations` re-derives the levels up to n = 7 by filtering
every graph with 3n - 6 edges for planarity and all-triangle faces, and
`flip_graph_triangulations` those up to n = 11 by a search over diagonal
flips, told apart by the general-graph canonical form.  `audit_dump`
checks a level's graph6 dump at any n up to 14 without re-deriving it:
each line a triangulation, no two isomorphic, and as many as OEIS A000109
counts.  `discover_catalog_graphs` re-derives a frozen catalog entry from
a corpus, and `verify_golden_entry` re-builds a golden-catalog record.

None of them imports `enumeration` or the kernel backends, and
`enumeration` imports neither this module nor `canon` nor `families`;
`tests/test_oracles.py` reads both modules' imports to hold them to it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import combinations

from .canon import canonical_form
from .counting import count_cycles
from .embeddings import Embedding, is_triangulation, planar_embed
from .families import build_D, expand, spec_from_name
from .graphs import Graph, GraphError, complete_graph, parse_graph6

BRUTEFORCE_MAX_N = 7
FLIP_ORACLE_MAX_N = 11

# OEIS A000109: the number of triangulation classes on n vertices
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595,
           13: 49566, 14: 339722}


def bruteforce_triangulations(n: int) -> list[str]:
    """Oracle: canonical forms of all n-vertex triangulations, by filtering
    every graph with 3n - 6 edges for planarity and all-triangle faces.

    Independent of the splitting generator; capped at n = 7 because the
    filter enumerates all C(n(n-1)/2, 3n-6) edge subsets.
    """
    if not (3 <= n <= BRUTEFORCE_MAX_N):
        raise GraphError(
            f"brute-force triangulation oracle supports 3 <= n <= {BRUTEFORCE_MAX_N}"
        )
    target_m = 3 * n - 6
    pairs = list(combinations(range(n), 2))
    forms: set[str] = set()
    for chosen in combinations(range(len(pairs)), target_m):
        degs = [0] * n
        for idx in chosen:
            u, v = pairs[idx]
            degs[u] += 1
            degs[v] += 1
        if n >= 4 and min(degs) < 3:
            continue
        g = Graph(n, [pairs[idx] for idx in chosen])
        emb = planar_embed(g)
        if isinstance(emb, Embedding) and is_triangulation(emb):
            forms.add(canonical_form(g))
    return sorted(forms)


def flip_graph_triangulations(n: int) -> list[str]:
    """Oracle: canonical forms of all n-vertex triangulations, by a
    breadth-first search over diagonal flips from an embedding of `D_n`
    (K4 at n = 4).

    Any two triangulations on n vertices are joined by a sequence of flips
    (Wagner 1936), so the search reaches every class.  Edge uv, with faces
    u-v-b and v-u-a on its two sides, flips to ab when a and b are not
    adjacent and u and v both have degree at least 4.  Every flipped
    rotation system goes through the `Embedding` constructor, and classes
    are told apart by `canon.canonical_form`; nothing is shared with the
    splitting generator or its embedding code.
    """
    if not (4 <= n <= FLIP_ORACLE_MAX_N):
        raise GraphError(
            f"flip-graph triangulation oracle supports 4 <= n <= {FLIP_ORACLE_MAX_N}"
        )
    start = planar_embed(build_D(n) if n > 4 else complete_graph(4))
    forms = {canonical_form(start.graph)}
    queue = deque([start.rotations])
    while queue:
        rots = queue.popleft()
        for u, rot_u in enumerate(rots):
            d = len(rot_u)
            for k, v in enumerate(rot_u):
                a, b = rot_u[k - 1], rot_u[(k + 1) % d]
                if v < u or d < 4 or len(rots[v]) < 4 or a in rots[b]:
                    continue
                flipped = list(rots)
                flipped[u] = rot_u[:k] + rot_u[k + 1 :]
                flipped[v] = tuple(w for w in rots[v] if w != u)
                flipped[a] = _insert_between(rots[a], u, v, b)
                flipped[b] = _insert_between(rots[b], u, v, a)
                g = Graph(n, [(x, y) for x, rot in enumerate(flipped) for y in rot if x < y])
                emb = Embedding(g, flipped)
                form = canonical_form(g)
                if form not in forms:
                    forms.add(form)
                    queue.append(emb.rotations)
    return sorted(forms)


def _insert_between(rot: tuple[int, ...], p: int, q: int, x: int) -> tuple[int, ...]:
    """`rot` with x placed between p and q, which are cyclically adjacent."""
    i, j = sorted((rot.index(p), rot.index(q)))
    at = j if j == i + 1 else len(rot)  # (0, len - 1): the pair wraps round
    return rot[:at] + (x,) + rot[at:]


def audit_dump(n: int, lines: Iterable[str]) -> list[str]:
    """Oracle: why the graph6 dump `lines` is not the n-vertex class set,
    as one message per fault ([] for a sound dump).

    Every line must parse to an n-vertex graph that `planar_embed` embeds
    as a triangulation, no two lines may share a `canonical_form`, and the
    lines must number A000109's count for n.  Then the lines are exactly
    the classes, one each.  Nothing is shared with the splitting generator
    or its embedding code but the `graphs` module.
    """
    if n not in A000109:
        raise GraphError(f"dump audit supports {min(A000109)} <= n <= {max(A000109)}")
    faults = []
    seen: dict[str, int] = {}
    count = 0
    for count, line in enumerate(lines, 1):
        try:
            g = parse_graph6(line)
        except GraphError as exc:
            faults.append(f"line {count}: {exc}")
            continue
        if g.n != n:
            faults.append(f"line {count}: {g.n} vertices, not {n}")
            continue
        emb = planar_embed(g)
        if not (isinstance(emb, Embedding) and is_triangulation(emb)):
            faults.append(f"line {count}: not a triangulation")
            continue
        first = seen.setdefault(canonical_form(g), count)
        if first != count:
            faults.append(f"line {count}: isomorphic to line {first}")
    if count != A000109[n]:
        faults.append(f"{count} lines, but A000109 counts {A000109[n]} classes on {n} vertices")
    return faults


def discover_catalog_graphs(n: int, c5: int, corpus) -> list[Graph]:
    """Re-derive a catalog entry from an enumerated corpus.

    Returns every n-vertex triangulation in the corpus with the stated
    pentagon count and no degree-4 vertex.  Callers must treat any result
    other than a single graph as an ambiguity to report, not resolve.
    """
    out = []
    for emb in corpus:
        g = emb.graph
        if g.n == n and count_cycles(g, 5) == c5 and 4 not in set(g.degree_sequence()):
            out.append(g)
    return out


def verify_golden_entry(entry: dict) -> bool:
    """Re-build a catalog entry and confirm count and isomorphism class."""
    spec = spec_from_name(entry["family"], entry.get("n"))
    g = expand(spec)
    return (
        count_cycles(g, 5) == entry["expected_c5"]
        and canonical_form(g) == canonical_form(parse_graph6(entry["graph6"]))
    )
