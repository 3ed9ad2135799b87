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
F and k only.  A step makes one scan over chords, then bridges, that
both retests and chooses: the choice stops at the first fragment with no
face (not planar) or one face (forced), else takes the first with the
fewest faces, while the retest runs on to the end of the lists; the step
uses the chosen fragment's lowest face.  A chord's walk is its edge, whose
ends give its mask, so it adds no vertex and no new fragment; a bridge's
walk is a shortest path through its interior.  The lists match a rebuild
from scratch in content and order, so every choice, hence the rotations
and the NotPlanar reasons, depends only on the input graph.

An Embedding traces its facial walks once, on first use, for both
`is_spherical` (which `planar_embed` asserts) and `faces`.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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
        return tuple(Face(tuple(walk)) for walk in self._traced)

    @cached_property
    def _traced(self) -> list[list[int]]:
        """The facial walks, traced once for `faces` and `is_spherical`."""
        return list(self._walks())

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
        starts = [walk[0] for walk in self._traced]
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
    """Edge sets of the biconnected components (iterative Hopcroft-Tarjan).

    A frame is [v, parent, index of the next neighbour to try]; a block is
    the edge stack down to its tree edge, in pop order."""
    nbrs = g.neighbors
    disc, low, tick = [-1] * g.n, [0] * g.n, 0
    # where each tree edge (parent, v) sits on the edge stack
    tree_at = [0] * g.n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = tick
        tick += 1
        dfs = [[root, -1, 0]]
        while dfs:
            frame = dfs[-1]
            v, parent, start = frame
            nv, dv = nbrs[v], disc[v]
            for i in range(start, len(nv)):
                w = nv[i]
                if w == parent:
                    continue
                dw = disc[w]
                if dw < 0:
                    frame[2] = i + 1
                    tree_at[w] = len(edge_stack)
                    edge_stack.append((v, w))
                    disc[w] = low[w] = tick
                    tick += 1
                    dfs.append([w, v, 0])
                    break
                if dw < dv:
                    edge_stack.append((v, w))
                    if dw < low[v]:
                        low[v] = dw
            else:
                dfs.pop()
                if dfs:
                    u, lv = dfs[-1][0], low[v]
                    if lv < low[u]:
                        low[u] = lv
                    if lv >= disc[u]:
                        at = tree_at[v]
                        block = edge_stack[at:]
                        del edge_stack[at:]
                        block.reverse()
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
    # walk that split face 0 into faces 0 and 1, all of it new to H; `inner`
    # masks the last walk's inner vertices, the only ones new fragments touch
    chords: list[list] = []
    bridges: list[list] = []
    face, walk, inside = 0, [cycle[-1], *cycle, cycle[0]], _mask(adj) & ~h_mask
    inner = h_mask
    while True:
        if inner:
            # new fragments: edges from the walk's inner vertices to H other
            # than walk edges (one record per edge), and the sub-bridges
            fits = 1 << face
            for i in range(1, len(walk) - 1):
                x = walk[i]
                ys = adj[x] & h_mask & ~(1 << walk[i - 1] | 1 << walk[i + 1]
                                         | inner & (1 << x) - 1)
                while ys:
                    low = ys & -ys
                    ys ^= low
                    y = low.bit_length() - 1
                    insort(chords, [[x, y] if x < y else [y, x], 1 << x | low, 0, fits])
            while inside:
                # one flood gathers a component and its neighbourhood
                low = inside & -inside
                comp = frontier = reach = low
                while frontier:
                    grow = 0
                    while frontier:
                        w = frontier & -frontier
                        grow |= adj[w.bit_length() - 1]
                        frontier ^= w
                    reach |= grow
                    frontier = grow & inside & ~comp
                    comp |= frontier
                inside ^= comp
                insort(bridges, [low.bit_length() - 1, reach & h_mask, comp, fits])
        if not (chords or bridges):
            break

        # one scan retests the fragments that fitted the split face against
        # it and the new face k (the only faces that changed) and makes the
        # choice: stop choosing at a fragment with no face or one face, else
        # keep the first with the fewest
        k = len(faces) - 1
        fm, fk, bit = face_masks[face], face_masks[k], 1 << face
        chosen: list = []
        least = len(faces) + 1
        for frags in (chords, bridges):
            for frag in frags:
                adm = frag[3]
                if adm & bit:
                    att = frag[1]
                    adm = adm ^ bit | (not att & ~fm) << face | (not att & ~fk) << k
                    frag[3] = adm
                if least > 1:
                    c = adm.bit_count()
                    if c < least:
                        if not c:
                            return NotPlanar(
                                f"fragment attached at {list(_bits(frag[1]))} fits no face"
                            )
                        chosen, least = frag, c
        key, att, interior, adm = chosen
        face = (adm & -adm).bit_length() - 1
        if interior:
            bridges.remove(chosen)
            walk = _alpha_path(adj, att, interior)
        else:
            # a chord's walk is its edge: it adds no vertex, hence no fragment
            chords.remove(chosen)
            walk = key
        a, b = walk[0], walk[-1]
        inner = _mask(walk[1:-1])
        # split the directed face by the path: it keeps the segment from a
        # to b, and the new face the segment from b to a
        f = faces[face]
        i, j = f.index(a), f.index(b)
        if i < j:
            seg_ab, seg_ba = f[i : j + 1], f[j:] + f[: i + 1]
        else:
            seg_ab, seg_ba = f[i:] + f[: j + 1], f[j : i + 1]
        faces[face] = seg_ab + walk[-2:0:-1]
        faces.append(seg_ba + walk[1:-1])
        # faces are cycles: the two segments share only a and b
        ba = _mask(seg_ba)
        face_masks[face] = face_masks[face] & ~ba | 1 << a | 1 << b | inner
        face_masks.append(ba | inner)
        h_mask |= inner
        inside = interior & ~h_mask

    # each face gives every vertex on it one successor entry
    succ: dict[int, dict[int, int]] = {v: {} for v in adj}
    for f in faces:
        u, v = f[-2], f[-1]
        for w in f:
            succ[v][u] = w
            u, v = v, w
    rotations: dict[int, list[int]] = {}
    for v, nxt in succ.items():
        cyc = [next(iter(nxt))]
        while (cur := nxt[cyc[-1]]) != cyc[0]:
            cyc.append(cur)
        if len(cyc) != adj[v].bit_count():
            raise AssertionError("face structure does not close into a rotation")
        rotations[v] = cyc
    return rotations


def _find_cycle(adj: dict[int, int]) -> list[int]:
    """A cycle of a biconnected block on >= 3 vertices: from the least
    vertex, step to the least neighbour other than the one just left until
    the walk meets itself.  Every vertex of the block has two neighbours
    in it, so the walk never sticks."""
    walk = [min(adj)]
    at = {walk[0]: 0}
    left = 0
    while True:
        v = walk[-1]
        rest = adj[v] & ~left
        if not rest:
            raise AssertionError("biconnected block with >= 3 vertices must contain a cycle")
        w = (rest & -rest).bit_length() - 1
        if w in at:
            return walk[at[w] :]
        at[w] = len(walk)
        walk.append(w)
        left = 1 << v


def _alpha_path(adj: dict[int, int], att: int, interior: int) -> list[int]:
    """A path between two distinct attachments through the (nonempty)
    interior of a bridge, breadth-first from the least attachment."""
    a = (att & -att).bit_length() - 1
    others = att ^ 1 << a
    seen = adj[a] & interior
    queue = []
    rest = seen
    while rest:
        low = rest & -rest
        queue.append(low.bit_length() - 1)
        rest ^= low
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
        while new:
            low = new & -new
            b = low.bit_length() - 1
            parent[b] = x
            queue.append(b)
            new ^= low
    raise AssertionError("fragment with a single attachment inside a biconnected block")


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
    e.graph._check_vertex(v)
    if not is_triangulation(e):
        return None
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
