"""Combinatorial embeddings: rotation systems, face tracing, planarity.

An Embedding pairs a Graph with a rotation system (cyclic neighbor order per
vertex).  Faces are recovered by the standard trace: the directed edge (u,v)
is followed by (v,w) where w is the neighbor after u in the rotation of v,
so every directed edge lies on exactly one facial walk.

`planar_embed` runs the classic cycle-plus-path-addition planarity algorithm
(Demoucron, Malgrange, Pertuiset) per biconnected block and glues the block
rotations at cut vertices.  Faces are maintained as directed cycles during
the insertion, which makes the final rotation system a one-pass read-off.

Fragment bookkeeping.  The block's edges are sorted once; the list of edges
not yet embedded shrinks by each inserted path.  Adjacency, the embedded
subgraph H and every face are vertex bitmasks, so a fragment with
attachment mask `att` fits a face exactly when `att & ~face_mask == 0`.
Fragments are produced lazily in a fixed order: chords by (u, v), then
bridges by their smallest vertex.  Each step takes the first fragment with
the fewest admissible faces and places it in the first of them; the scan
stops at the first fragment with no face (not planar) or with exactly one
(forced).  Because that order and those rules fix every choice, the
rotations and the NotPlanar reasons depend only on the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, _bits, _flood


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
        rots = self.rotations
        pos = [{u: i for i, u in enumerate(rot)} for rot in rots]
        seen: set[tuple[int, int]] = set()
        faces = []
        for a in range(self.graph.n):
            for b in rots[a]:
                if (a, b) in seen:
                    continue
                walk = []
                u, v = a, b
                while (u, v) not in seen:
                    seen.add((u, v))
                    walk.append(u)
                    rot_v = rots[v]
                    u, v = v, rot_v[(pos[v][u] + 1) % len(rot_v)]
                faces.append(Face(tuple(walk)))
        return tuple(faces)

    @cached_property
    def is_spherical(self) -> bool:
        """Euler check n - m + f = 2, applied to every connected component."""
        rows = self.graph.bitrows
        starts = [face.boundary[0] for face in self.faces]
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
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    for root in range(g.n):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        dfs = [(root, -1, iter(g.neighbors[root]))]
        while dfs:
            v, parent, it = dfs[-1]
            pushed = False
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = len(disc)
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
    block_mask = _mask(adj)

    cycle = _find_cycle(adj)
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]
    h_mask = _mask(cycle)
    face_masks = [h_mask, h_mask]
    rest = sorted((u, v) if u < v else (v, u) for u, v in block_edges)
    rest = _drop_path_edges(rest, cycle + cycle[:1])

    while rest:
        chosen: tuple[int, int, int, int] | None = None
        for att, interior in _fragments(adj, block_mask, rest, h_mask):
            admissible = [i for i, fm in enumerate(face_masks) if not att & ~fm]
            if not admissible:
                return NotPlanar(
                    f"fragment attached at {list(_bits(att))} fits no face"
                )
            if chosen is None or len(admissible) < chosen[0]:
                chosen = (len(admissible), att, interior, admissible[0])
                if chosen[0] == 1:
                    # forced placement; no better choice can exist
                    break
        assert chosen is not None
        _, att, interior, face = chosen
        path = _alpha_path(adj, att, interior)
        _insert_path(faces, face, path)
        face_masks[face] = _mask(faces[face])
        face_masks.append(_mask(faces[-1]))
        h_mask |= _mask(path)
        rest = _drop_path_edges(rest, path)

    succ: dict[int, dict[int, int]] = {v: {} for v in adj}
    for face in faces:
        size = len(face)
        for t in range(size):
            u, v, w = face[t], face[(t + 1) % size], face[(t + 2) % size]
            succ[v][u] = w
    rotations: dict[int, list[int]] = {}
    for v, nxt in succ.items():
        start = next(iter(nxt))
        cyc = [start]
        cur = nxt[start]
        while cur != start:
            cyc.append(cur)
            cur = nxt[cur]
        if len(cyc) != adj[v].bit_count():
            raise AssertionError("face structure does not close into a rotation")
        rotations[v] = cyc
    return rotations


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _drop_path_edges(
    rest: list[tuple[int, int]], path: list[int]
) -> list[tuple[int, int]]:
    """The edges of `rest` (sorted pairs) that are not edges of the walk."""
    done = {(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])}
    return [e for e in rest if e not in done]


def _fragments(
    adj: dict[int, int], block_mask: int, rest: list[tuple[int, int]], h_mask: int
) -> Iterator[tuple[int, int]]:
    """The fragments of the block relative to H, as (attachments, interior)
    vertex masks, lazily: chords (interior 0) in (u, v) order, then the
    bridges in order of their smallest vertex."""
    for u, v in rest:
        if h_mask >> u & 1 and h_mask >> v & 1:
            yield 1 << u | 1 << v, 0
    outside = block_mask & ~h_mask
    while outside:
        interior = _flood(adj, outside & -outside, outside)
        outside ^= interior
        reach = 0
        for x in _bits(interior):
            reach |= adj[x]
        yield reach & h_mask, interior


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
    (the chord itself when the interior is empty)."""
    if not interior:
        return list(_bits(att))
    a = (att & -att).bit_length() - 1
    parent: dict[int, int] = {}
    queue = list(_bits(adj[a] & interior))
    for x in queue:
        parent[x] = -1
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for b in _bits(adj[x]):
            if att >> b & 1 and b != a:
                rev = [x]
                while parent[rev[-1]] != -1:
                    rev.append(parent[rev[-1]])
                return [a] + list(reversed(rev)) + [b]
            if interior >> b & 1 and b not in parent:
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
