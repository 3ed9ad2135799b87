"""Combinatorial embeddings: rotation systems, face tracing, planarity.

An Embedding pairs a Graph with a rotation system (cyclic neighbor order per
vertex).  Faces are recovered by the standard trace: the directed edge (u,v)
is followed by (v,w) where w is the neighbor after u in the rotation of v,
so every directed edge lies on exactly one facial walk.

`planar_embed` runs the classic cycle-plus-path-addition planarity algorithm
(Demoucron, Malgrange, Pertuiset) per biconnected block and glues the block
rotations at cut vertices.  Faces are maintained as directed cycles during
the insertion, which makes the final rotation system a one-pass read-off.

Fragment bookkeeping.  Adjacency, the embedded subgraph H and every face are
vertex bitmasks; a fragment with attachments `att` fits a face exactly when
`att & ~face_mask == 0`.  The fragments persist across insertions in two
sorted lists, chords by (u, v) and bridges by least vertex, each carrying
its attachment and interior masks and the mask of the faces it fits.  When
a path splits face F into F and a new face k, no other face changes, so
only the fragments that fitted F are retested, against F and k; one that
did not fit F cannot fit k, whose only vertices outside F are the path's
inner ones, and those touched no fragment but the embedded bridge.  The new
fragments, that bridge's remaining edges to H and its sub-bridges, each
attach at an inner path vertex (its interior was connected), which lies on
F and k only.  A step scans chords, then bridges, stops at the first
fragment with no face (not planar) or one face (forced), else takes the
first with the fewest faces, and uses its lowest face.  The lists match a
rebuild from scratch in content and order, so every choice, hence the
rotations and the NotPlanar reasons, depends only on the input graph.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterator, Sequence

from .graphs import Graph, _bits, _flood, _mask


class EmbeddingError(ValueError):
    """Raised for rotation systems that do not match the stated contracts."""


@dataclass(frozen=True)
class Face:
    """A facial walk, stored as the cyclic sequence of traversed vertices."""

    boundary: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.boundary)

    def __contains__(self, v: int) -> bool:
        return v in self.boundary

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.boundary)


@dataclass(frozen=True)
class NotPlanar:
    """Negative planarity witness (diagnostic only, no Kuratowski subgraph)."""

    reason: str


class Embedding:
    """Immutable rotation system over a Graph, with derived faces."""

    def __init__(self, graph: Graph, rotations: Sequence[Sequence[int]]):
        if len(rotations) != graph.n:
            raise EmbeddingError(
                f"expected {graph.n} rotations, got {len(rotations)}"
            )
        rots = tuple(tuple(r) for r in rotations)
        for v, rot in enumerate(rots):
            if tuple(sorted(rot)) != graph.neighbors[v]:
                raise EmbeddingError(
                    f"rotation of vertex {v} is not a cyclic order of N({v})"
                )
        self.graph = graph
        self.rotations = rots

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(Face(tuple(walk)) for walk in self._walks())

    def _walks(self) -> Iterator[list[int]]:
        """The facial walks, each from its first dart in vertex order."""
        rots = self.rotations
        # succ[v][u]: the vertex after u around v, popped once (u, v) is traced
        succ = [dict(zip(rot, rot[1:] + rot[:1])) for rot in rots]
        for a, rot in enumerate(rots):
            for b in rot:
                walk, u, v = [], a, b
                while u in succ[v]:
                    walk.append(u)
                    u, v = v, succ[v].pop(u)
                if walk:
                    yield walk

    @cached_property
    def is_spherical(self) -> bool:
        """Euler check n - m + f = 2, applied to every connected component."""
        rows = self.graph.bitrows
        starts = [walk[0] for walk in self._walks()]
        rest = (1 << self.graph.n) - 1
        while rest:
            comp = _flood(rows, rest & -rest, rest)
            rest ^= comp
            n_c = comp.bit_count()
            m_c = sum(rows[v].bit_count() for v in _bits(comp)) // 2
            f_c = sum(comp >> v & 1 for v in starts)
            if n_c > 1 and n_c - m_c + f_c != 2:
                return False
        return True

    def __repr__(self) -> str:
        return f"Embedding(n={self.graph.n}, m={self.graph.m})"


def _is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return g.n <= 1 or _flood(g.bitrows, 1, full) == full


# ---------------------------------------------------------------------------
# Planarity: biconnected decomposition + face-splitting embedder
# ---------------------------------------------------------------------------


def planar_embed(g: Graph) -> Embedding | NotPlanar:
    """A planar embedding of g, or a NotPlanar witness.

    Deterministic for a given input ordering.  The embedding is on the
    sphere; no outer face is distinguished.
    """
    n = g.n
    if n >= 3 and g.m > 3 * n - 6:
        return NotPlanar(f"m={g.m} exceeds the planar bound 3n-6={3 * n - 6}")
    rotations: list[list[int]] = [[] for _ in range(n)]
    for block in _biconnected_blocks(g):
        if len(block) == 1:
            (u, v), = block
            rotations[u].append(v)
            rotations[v].append(u)
            continue
        rot_block = _embed_block(block)
        if isinstance(rot_block, NotPlanar):
            return rot_block
        for v, cyc in rot_block.items():
            rotations[v].extend(cyc)
    emb = Embedding(g, rotations)
    if not emb.is_spherical:
        raise AssertionError("embedder produced a non-spherical rotation system")
    return emb


def _biconnected_blocks(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected components (iterative Hopcroft-Tarjan)."""
    disc, low, tick = [-1] * g.n, [0] * g.n, count()
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(tick)
        dfs = [(root, -1, iter(g.neighbors[root]))]
        while dfs:
            v, parent, it = dfs[-1]
            pushed = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] < 0:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = next(tick)
                    dfs.append((w, v, iter(g.neighbors[w])))
                    pushed = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if pushed:
                continue
            dfs.pop()
            if dfs:
                u = dfs[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(block)
    return blocks


def _embed_block(block_edges: list[tuple[int, int]]) -> dict[int, list[int]] | NotPlanar:
    """Embed one biconnected block (>= 3 vertices); returns rotations."""
    adj: dict[int, int] = {}
    for u, v in block_edges:
        adj[u] = adj.get(u, 0) | 1 << v
        adj[v] = adj.get(v, 0) | 1 << u

    cycle = _find_cycle(adj)
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]
    h_mask = _mask(cycle)
    face_masks = [h_mask, h_mask]
    # records [key, attachments, interior, face mask]; the cycle enters as a
    # walk that split face 0 into faces 0 and 1, all of it new to H
    chords: list[list] = []
    bridges: list[list] = []
    face, walk, inside = 0, [cycle[-1], *cycle, cycle[0]], _mask(adj) & ~h_mask
    while True:
        # new fragments: edges from the walk's inner vertices to H, sub-bridges
        inner = _mask(walk[1:-1])
        for i in range(1, len(walk) - 1):
            x = walk[i]
            for y in _bits(adj[x] & h_mask & ~(1 << walk[i - 1] | 1 << walk[i + 1])):
                if not (inner >> y & 1 and y < x):
                    e = (x, y) if x < y else (y, x)
                    insort(chords, [e, 1 << x | 1 << y, 0, 1 << face])
        for frag in _bridges(adj, inside, h_mask, 1 << face):
            insort(bridges, frag)
        # the split face and the new face k are the only faces that changed
        k = len(faces) - 1
        fm, fk = face_masks[face], face_masks[k]
        for frag in chords + bridges:
            adm = frag[3]
            if adm >> face & 1:
                att = frag[1]
                frag[3] = (adm ^ 1 << face | (not att & ~fm) << face
                           | (not att & ~fk) << k)
        if not (chords or bridges):
            break

        chosen: list | None = None
        for frag in chords + bridges:
            adm = frag[3]
            if not adm:
                return NotPlanar(
                    f"fragment attached at {list(_bits(frag[1]))} fits no face"
                )
            if chosen is None or adm.bit_count() < chosen[3].bit_count():
                chosen = frag
                if adm & (adm - 1) == 0:
                    # forced placement; no better choice can exist
                    break
        assert chosen is not None
        _, att, interior, adm = chosen
        face = (adm & -adm).bit_length() - 1
        (bridges if interior else chords).remove(chosen)
        walk = _alpha_path(adj, att, interior)
        _insert_path(faces, face, walk)
        # faces are cycles: the old face and the new one share only a and b
        walk_mask = _mask(walk)
        face_masks.append(_mask(faces[-1]))
        face_masks[face] = face_masks[face] & ~face_masks[-1] | walk_mask
        h_mask |= walk_mask
        inside = interior & ~h_mask

    succ: dict[int, dict[int, int]] = {v: {} for v in adj}
    for f in faces:
        for u, v, w in zip(f, f[1:] + f[:1], f[2:] + f[:2]):
            succ[v][u] = w
    rotations: dict[int, list[int]] = {}
    for v, nxt in succ.items():
        cyc = [next(iter(nxt))]
        while (cur := nxt[cyc[-1]]) != cyc[0]:
            cyc.append(cur)
        if len(cyc) != adj[v].bit_count():
            raise AssertionError("face structure does not close into a rotation")
        rotations[v] = cyc
    return rotations


def _bridges(
    adj: dict[int, int], outside: int, h_mask: int, fits: int
) -> Iterator[list]:
    """Bridge records for the components of `outside` (vertices off H) by
    least vertex; one flood gathers a component and its neighbourhood."""
    while outside:
        low = outside & -outside
        comp = frontier = reach = low
        while frontier:
            grow = 0
            while frontier:
                w = frontier & -frontier
                grow |= adj[w.bit_length() - 1]
                frontier ^= w
            reach |= grow
            frontier = grow & outside & ~comp
            comp |= frontier
        outside ^= comp
        yield [low.bit_length() - 1, reach & h_mask, comp, fits]


def _find_cycle(adj: dict[int, int]) -> list[int]:
    """Any cycle, via depth-first search (no cross edges in undirected DFS)."""
    start = min(adj)
    frames = [(start, -1, _bits(adj[start]))]
    onpath = [start]
    onset = {start}
    visited = {start}
    while frames:
        v, parent, it = frames[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if w in onset:
                return onpath[onpath.index(w) :]
            if w not in visited:
                visited.add(w)
                frames.append((w, v, _bits(adj[w])))
                onpath.append(w)
                onset.add(w)
                advanced = True
                break
        if not advanced:
            frames.pop()
            onpath.pop()
            onset.discard(v)
    raise AssertionError("biconnected block with >= 3 vertices must contain a cycle")


def _alpha_path(adj: dict[int, int], att: int, interior: int) -> list[int]:
    """A path between two distinct attachments through the fragment interior
    (the chord itself when the interior is empty), breadth-first from the
    least attachment."""
    if not interior:
        return list(_bits(att))
    a = (att & -att).bit_length() - 1
    others = att ^ 1 << a
    seen = adj[a] & interior
    queue = list(_bits(seen))
    parent = dict.fromkeys(queue, -1)
    for x in queue:
        hit = adj[x] & others
        if hit:
            rev = [x]
            while parent[rev[-1]] != -1:
                rev.append(parent[rev[-1]])
            return [a, *reversed(rev), (hit & -hit).bit_length() - 1]
        new = adj[x] & interior & ~seen
        seen |= new
        for b in _bits(new):
            parent[b] = x
            queue.append(b)
    raise AssertionError("fragment with a single attachment inside a biconnected block")


def _insert_path(faces: list[list[int]], face_idx: int, path: list[int]) -> None:
    """Split the directed face by the path; both orientations stay consistent."""
    face = faces[face_idx]
    a, b = path[0], path[-1]
    i, j = face.index(a), face.index(b)
    if i < j:
        seg_ab = face[i : j + 1]
        seg_ba = face[j:] + face[: i + 1]
    else:
        seg_ab = face[i:] + face[: j + 1]
        seg_ba = face[j : i + 1]
    interior = path[1:-1]
    faces[face_idx] = seg_ab + list(reversed(interior))
    faces.append(seg_ba + list(interior))


# ---------------------------------------------------------------------------
# Triangulation predicates
# ---------------------------------------------------------------------------


def is_triangulation(e: Embedding) -> bool:
    """Every face a triangle (maximal planar graph); requires n >= 3.

    For a connected spherical embedding this coincides with m = 3n - 6.
    """
    g = e.graph
    if g.n < 3 or not _is_connected(g) or not e.is_spherical:
        return False
    return all(len(f) == 3 for f in e.faces)


def neighborhood_cycle(e: Embedding, v: int) -> tuple[int, ...] | None:
    """Cyclic order of N(v) as a Hamiltonian cycle of the neighborhood.

    None when e is not a triangulation.  In a triangulation, consecutive
    rotation neighbors must be adjacent; a violation means the embedding is
    corrupt and raises.
    """
    if not is_triangulation(e):
        return None
    e.graph._check_vertex(v)
    rot = e.rotations[v]
    for i, a in enumerate(rot):
        b = rot[(i + 1) % len(rot)]
        if not e.graph.has_edge(a, b):
            raise EmbeddingError(
                f"triangulation invariant broken: {a} and {b} are consecutive "
                f"around {v} but not adjacent"
            )
    return rot


def triangular_faces(e: Embedding) -> list[Face]:
    """All faces of boundary length exactly 3, each face reported once."""
    return [f for f in e.faces if len(f) == 3]
