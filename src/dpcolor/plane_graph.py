"""Plane graphs as rotation systems, with face tracing and cycle queries.

A plane graph is stored combinatorially: every vertex carries the clockwise
cyclic order of its neighbors.  Faces are recovered by tracing directed
edges (the successor of a directed edge (u, v) is (v, w) where w follows u
in the rotation at v).  One face is distinguished as the outer face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Sequence


class PlaneGraphError(Exception):
    """Base class for embedding construction errors."""


class InconsistentRotation(PlaneGraphError):
    """The rotation lists do not describe a simple undirected graph."""


class NonPlanarClosure(PlaneGraphError):
    """Face tracing does not close up to a sphere (Euler check failed)."""


class BadHint(PlaneGraphError):
    """The outer-face hint matches no face of the embedding."""


@dataclass(frozen=True)
class Face:
    """One face of the embedding.

    The boundary is the closed walk of vertices met when tracing the face;
    its length equals the number of edge slots on the walk (a bridge is met
    twice).  A plain cycle bounds two faces; a single edge bounds one face
    of length 2.
    """

    id: int
    boundary: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.boundary)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.boundary)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Undirected edges on the boundary walk."""
        b = self.boundary
        m = len(b)
        return frozenset(_norm_edge(b[i], b[(i + 1) % m]) for i in range(m))


@dataclass(frozen=True)
class Cycle:
    """A simple cycle, stored as a vertex tuple without repeats."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        v = self.vertices
        m = len(v)
        return frozenset(_norm_edge(v[i], v[(i + 1) % m]) for i in range(m))

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _cyclic_min(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation of a cyclic sequence."""
    t = tuple(seq)
    if not t:
        return t
    return min(tuple(t[i:] + t[:i]) for i in range(len(t)))


class PlaneGraph:
    """Immutable embedded planar graph.

    Build instances through :func:`build_from_rotation`; the constructor
    assumes already-validated data.
    """

    __slots__ = ("vertex_count", "rotations", "_faces", "outer_face_id",
                 "_edge_face", "_adj", "_edges")

    def __init__(self, vertex_count: int, rotations: tuple[tuple[int, ...], ...],
                 faces: tuple[Face, ...], outer_face_id: int,
                 edge_face: dict[tuple[int, int], int]):
        self.vertex_count = vertex_count
        self.rotations = rotations
        self._faces = faces
        self.outer_face_id = outer_face_id
        self._edge_face = edge_face
        self._adj = tuple(frozenset(r) for r in rotations)
        self._edges: Optional[tuple[tuple[int, int], ...]] = None

    # -- basic queries -------------------------------------------------

    @property
    def faces(self) -> tuple[Face, ...]:
        return self._faces

    @property
    def outer_face(self) -> Face:
        return self._faces[self.outer_face_id]

    def face(self, face_id: int) -> Face:
        return self._faces[face_id]

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in clockwise rotation order."""
        return self.rotations[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v), u < v, in sorted order; built on first call."""
        if self._edges is None:
            self._edges = tuple(sorted(
                (u, v) for u, rot in enumerate(self.rotations)
                for v in rot if u < v))
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rotations) // 2

    def faces_at_edge(self, u: int, v: int) -> tuple[int, int]:
        """The (at most two distinct) face ids on either side of edge uv."""
        return (self._edge_face[(u, v)], self._edge_face[(v, u)])

    def outer_vertices(self) -> frozenset[int]:
        return self.outer_face.vertex_set()

    # -- serialization helper -------------------------------------------

    def rotation_lines(self) -> list[str]:
        lines = [str(self.vertex_count)]
        lines += [" ".join(str(w) for w in rot) for rot in self.rotations]
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlaneGraph(n={self.vertex_count}, m={self.edge_count}, "
                f"faces={len(self._faces)}, outer={self.outer_face_id})")


def _validate_rotations(vertex_count: int,
                        rotations: Sequence[Sequence[int]]) -> list[set[int]]:
    if vertex_count < 1:
        raise InconsistentRotation("vertex_count must be positive")
    if len(rotations) != vertex_count:
        raise InconsistentRotation(
            f"expected {vertex_count} rotation lists, got {len(rotations)}")
    adj = []
    for u, rot in enumerate(rotations):
        for v in rot:
            if not 0 <= v < vertex_count:
                raise InconsistentRotation(f"vertex {u}: neighbor {v} out of range")
            if v == u:
                raise InconsistentRotation(f"loop at vertex {u}")
        s = set(rot)
        if len(s) != len(rot):
            raise InconsistentRotation(f"repeated neighbor in rotation of {u}")
        adj.append(s)
    for u in range(vertex_count):
        for v in adj[u]:
            if u not in adj[v]:
                raise InconsistentRotation(
                    f"asymmetric adjacency: {v} lists {u} only one way")
    return adj


def _trace_faces(vertex_count: int,
                 rotations: tuple[tuple[int, ...], ...]
                 ) -> tuple[list[tuple[int, ...]], dict[tuple[int, int], int]]:
    """Trace all face walks; returns boundaries and directed-edge ownership."""
    index_of = [
        {w: i for i, w in enumerate(rot)} for rot in rotations
    ]
    edge_face: dict[tuple[int, int], int] = {}
    boundaries: list[tuple[int, ...]] = []
    for u0 in range(vertex_count):
        for v0 in rotations[u0]:
            if (u0, v0) in edge_face:
                continue
            fid = len(boundaries)
            walk: list[int] = []
            u, v = u0, v0
            while (u, v) not in edge_face:
                edge_face[(u, v)] = fid
                walk.append(u)
                rot = rotations[v]
                # successor of the reversed edge: neighbor after u at v
                w = rot[(index_of[v][u] + 1) % len(rot)]
                u, v = v, w
            boundaries.append(tuple(walk))
    return boundaries, edge_face


def _boundary_matches_hint(boundary: tuple[int, ...],
                           hint: tuple[int, ...]) -> bool:
    if len(boundary) != len(hint):
        return False
    canon = _cyclic_min(boundary)
    return canon == _cyclic_min(hint) or canon == _cyclic_min(tuple(reversed(hint)))


def build_from_rotation(vertex_count: int,
                        rotations: Sequence[Sequence[int]],
                        outer_face_hint: Optional[Sequence[int]] = None
                        ) -> PlaneGraph:
    """Build a plane graph from per-vertex clockwise neighbor orders.

    The rotation lists must describe a connected simple graph whose face
    tracing satisfies Euler's formula (|V| - |E| + |F| = 2); anything else
    is rejected.  The outer face is chosen by the hint (a boundary walk,
    matched up to rotation and reflection) when given, otherwise the face
    with the longest boundary, ties broken by the lexicographically
    smallest rotation of the boundary.

    Raises:
        InconsistentRotation: adjacency is not symmetric/simple.
        NonPlanarClosure: Euler check fails (includes disconnected input).
        BadHint: the hint matches no face.
    """
    adj = _validate_rotations(vertex_count, rotations)
    rots = tuple(tuple(r) for r in rotations)
    edge_count = sum(len(r) for r in rots) // 2

    if edge_count == 0:
        if vertex_count != 1:
            raise NonPlanarClosure("edgeless input with more than one vertex")
        faces = (Face(0, ()),)
        if outer_face_hint is not None and tuple(outer_face_hint) != ():
            raise BadHint("single-vertex graph has only the empty outer face")
        return PlaneGraph(1, rots, faces, 0, {})

    boundaries, edge_face = _trace_faces(vertex_count, rots)
    face_count = len(boundaries)
    if vertex_count - edge_count + face_count != 2:
        raise NonPlanarClosure(
            f"Euler check failed: {vertex_count} - {edge_count} + {face_count} != 2")
    # Euler alone admits disconnected unions with handles; a direct check is cheap.
    if len(_reach(adj, 0, frozenset(range(vertex_count)))) != vertex_count:
        raise NonPlanarClosure("graph is disconnected")

    faces = tuple(Face(i, b) for i, b in enumerate(boundaries))

    if outer_face_hint is not None:
        hint = tuple(outer_face_hint)
        matches = [f.id for f in faces if _boundary_matches_hint(f.boundary, hint)]
        if not matches:
            raise BadHint(f"no face has boundary {hint}")
        outer_id = matches[0]
    else:
        outer_id = min(range(face_count),
                       key=lambda i: (-len(boundaries[i]), _cyclic_min(boundaries[i])))
    return PlaneGraph(vertex_count, rots, faces, outer_id, edge_face)


def faces(g: PlaneGraph) -> list[Face]:
    """All faces of the embedding (every directed edge on exactly one walk)."""
    return list(g.faces)


def _reach(adj: Sequence[Collection[int]], start: int,
           subset: frozenset[int]) -> list[int]:
    """The vertices of ``subset`` reachable from ``start``, in BFS order
    with neighbors in ascending order."""
    order = [start]
    seen = {start}
    for u in order:
        for w in sorted(adj[u]):
            if w not in seen and w in subset:
                seen.add(w)
                order.append(w)
    return order


def _components(adj: Sequence[Collection[int]],
                subset: frozenset[int]) -> list[frozenset[int]]:
    """The components of the subgraph that ``subset`` induces, by least
    vertex."""
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for v in sorted(subset):
        if v not in seen:
            comps.append(frozenset(_reach(adj, v, subset)))
            seen |= comps[-1]
    return comps


def enumerate_cycles(g: PlaneGraph, max_len: int) -> list[Cycle]:
    """All simple cycles of length at most ``max_len``, one per cycle.

    Each cycle is reported once up to rotation and reflection: the stored
    tuple starts at the cycle's smallest vertex and runs toward the smaller
    of its two neighbors on the cycle. The list is grouped by length, and is
    lexicographic within a length. Paths enter only vertices whose distance
    to the root through larger vertices leaves room to close, none beyond
    ``max_len // 2``: both arcs between one and the root on a cycle exceed it.
    """
    if max_len < 3:
        return []
    n = g.vertex_count
    adj = [sorted(g.neighbors(v)) for v in range(n)]
    by_length: list[list[Cycle]] = [[] for _ in range(min(max_len, n) + 1)]
    # distance to the root, max_len if unreached, max_len more on the path
    dist = [max_len] * n
    for root in range(n):
        dist[root], reached = 0, [root]
        for v in reached:
            if dist[v] < max_len // 2:
                for w in adj[v]:
                    if w > root and dist[w] == max_len:
                        dist[w] = dist[v] + 1
                        reached.append(w)
        dist[root] += max_len
        # simple paths up from the root in ascending order, on a stack
        path, stack = [root], [iter(adj[root])]
        while stack:
            room = max_len - len(path)
            for w in stack[-1]:
                if dist[w] <= room:
                    break
            else:
                stack.pop()
                dist[path.pop()] -= max_len
                continue
            if dist[w] == 1 and len(path) >= 2 and path[1] < w:
                by_length[len(path) + 1].append(Cycle((*path, w)))
            if len(path) < max_len - 1:
                path.append(w)
                dist[w] += max_len
                stack.append(iter(adj[w]))
        for v in reached:
            dist[v] = max_len
    return [c for cycles in by_length for c in cycles]


def face_shared_edges(g: PlaneGraph, f1: Face, f2: Face) -> int:
    """Number of undirected edges lying on both face boundaries."""
    if f1.id == f2.id:
        raise ValueError("faces must be distinct")
    return len(f1.edge_set() & f2.edge_set())
