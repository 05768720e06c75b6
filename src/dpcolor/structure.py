"""Structural configurations of plane graphs: class membership, triangle
patches, good/bad cycles, vertex/face tags, and checkable structural facts.

Unless stated otherwise, "3-face" below means a bounded (non-outer)
triangular face; the outer face is accounted separately everywhere it
matters.  Everything embedding-dependent is computed relative to the
stored outer face.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .plane_graph import (Cycle, Face, PlaneGraph, _components, _cyclic_min,
                          _norm_edge, _reach, build_from_rotation,
                          enumerate_cycles)


class StructureError(Exception):
    pass


class NotACycle(StructureError):
    pass


class ReductionRefused(StructureError):
    """Base class for identification refusals."""


class CreatesLoop(ReductionRefused):
    pass


class CreatesParallelEdge(ReductionRefused):
    pass


class CreatesForbiddenAdjacency(ReductionRefused):
    pass


class BadFourCyclePresent(ReductionRefused):
    pass


class NotInternal(ReductionRefused):
    pass


@dataclass(frozen=True)
class ClassTag:
    """Membership in the two hereditary classes this laboratory studies.

    g1: no 4-cycle shares an edge with a 5-cycle.
    g2: no 4-cycle shares an edge with a 6-cycle.
    So g1 (g2) fails iff some edge uv has simple u-v paths of lengths 3 and
    4 (3 and 5); with only even faces there is no 5-cycle, and g1 holds.
    """

    in_g1: bool
    in_g2: bool

    @property
    def label(self) -> str:
        if self.in_g1 and self.in_g2:
            return "both"
        if self.in_g1:
            return "g1"
        if self.in_g2:
            return "g2"
        return "neither"


@dataclass(frozen=True)
class TrianglePatch:
    """A maximal connected group of bounded 3-faces glued along edges."""

    size: int
    face_ids: tuple[int, ...]
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    boundary_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class CycleClassification:
    cycle: Cycle
    is_bad: bool
    bad_witnesses: tuple[int, ...]
    separating: bool
    has_chord: bool
    has_internal_common_neighbor: bool
    common_neighbor_witnesses: tuple[tuple[int, int, int], ...]
    interior: frozenset[int]
    exterior: frozenset[int]

    @property
    def is_good(self) -> bool:
        return not self.is_bad


@dataclass(frozen=True)
class VertexFaceBadness:
    """Per-vertex and per-face tags driving the discharging rules."""

    bad4: frozenset[int]
    bad5: frozenset[int]
    good5: frozenset[int]
    diamond_faces: frozenset[int]
    triangles_at_vertex: tuple[tuple[int, ...], ...]
    internal_vertices: frozenset[int]
    internal_faces: frozenset[int]
    special_faces: dict[int, frozenset[int]]  # 5-face id -> special 4-minus faces

    def isolated_triangles_at(self, v: int, an: "_Analysis"
                              ) -> tuple[int, ...]:
        """Incident 3-faces adjacent to none of v's other incident 3-faces."""
        fs = self.triangles_at_vertex[v]
        return tuple(f for f in fs
                     if not any(an.adjacent(f, other) for other in fs))


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one structural check.

    kind "theorem": expected to hold for every member of the class the
    check is gated on.  kind "precondition": a hypothesis used by the
    reduction arguments; failures on real graphs are informative, they
    mark the graph as reducible rather than faulty.
    """

    check_id: str
    kind: str
    holds: bool
    witnesses: tuple = ()


def _has_path(adj: Sequence[frozenset[int]], u: int, v: int, n: int) -> bool:
    """Whether a simple u-v path of exactly n >= 2 edges exists."""
    path, stack = [u], [iter(adj[u])]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            del stack[-1], path[-1]
        elif w == v or w in path:
            continue
        elif len(path) < n - 1:
            path.append(w)
            stack.append(iter(adj[w]))
        elif v in adj[w]:
            return True
    return False


class _Analysis:
    """The derived structural facts of one graph, each computed at most once.

    Every public check builds one for its own call and drops it on return;
    nothing is kept on the graph or in the module.  ``badness`` may be set
    before first use, as run_discharging does with supplied tags; the
    internal triangles then follow those tags.
    """

    def __init__(self, g: PlaneGraph):
        self.g = g
        self._cycles_up_to = 2
        self._cycles: list[Cycle] = []

    def cycles(self, max_len: int) -> list[Cycle]:
        """Cycles of length at most ``max_len`` in enumerate_cycles' order,
        grouped by length; enumerated again only to reach further."""
        if max_len > self._cycles_up_to:
            self._cycles = enumerate_cycles(self.g, max_len)
            self._cycles_up_to = max_len
        return [c for c in self._cycles if c.length <= max_len]

    @cached_property
    def _shared(self) -> list[dict[int, int]]:
        """Per face: each face it shares an edge with, and how many edges."""
        shared: list[dict[int, int]] = [{} for _ in self.g.faces]
        for u, v in self.g.edges():
            f1, f2 = self.g.faces_at_edge(u, v)
            if f1 != f2:
                shared[f1][f2] = shared[f1].get(f2, 0) + 1
                shared[f2][f1] = shared[f2].get(f1, 0) + 1
        return shared

    @cached_property
    def face_neighbors(self) -> list[tuple[int, ...]]:
        """Per face, the faces it shares an edge with, in id order."""
        return [tuple(sorted(s)) for s in self._shared]

    def adjacent(self, f1: int, f2: int) -> bool:
        return f2 in self._shared[f1]

    def shared_edges(self, f1: int, f2: int) -> int:
        return self._shared[f1].get(f2, 0)

    @cached_property
    def internal_vertices(self) -> frozenset[int]:
        return frozenset(range(self.g.vertex_count)) - self.g.outer_vertices()

    @cached_property
    def internal_faces(self) -> frozenset[int]:
        """Bounded faces with no vertex on the outer face."""
        g, outer = self.g, self.g.outer_vertices()
        return frozenset(f.id for f in g.faces if f.id != g.outer_face_id
                         and outer.isdisjoint(f.vertex_set()))

    @cached_property
    def low_degree(self) -> tuple[int, ...]:
        """Internal vertices of degree at most 3, in id order."""
        return tuple(sorted(v for v in self.internal_vertices
                            if self.g.degree(v) <= 3))

    @cached_property
    def outer_witnesses(self) -> tuple[tuple[int, ...], ...]:
        """Chords (u, v) of the outer cycle, and (u, v, w) where non-adjacent
        u, v on it share the interior neighbour w.  When the outer face walk
        is not a simple cycle: (v,) for each vertex it repeats, or (walk,)
        for a walk of fewer than 3 vertices."""
        walk = self.g.outer_face.boundary
        if len(walk) < 3:
            return (walk,)
        repeated = sorted(v for v, n in Counter(walk).items() if n > 1)
        if repeated:
            return tuple((v,) for v in repeated)
        return tuple(_chords_and_shared_neighbors(self.g, walk,
                                                  self.internal_vertices))

    @cached_property
    def triangles(self) -> list[Face]:
        return self.bounded_faces(3, 3)

    @cached_property
    def triangle_ids(self) -> frozenset[int]:
        return frozenset(f.id for f in self.triangles)

    @cached_property
    def internal_triangles(self) -> frozenset[int]:
        """Bounded 3-faces the tags count as internal."""
        return self.triangle_ids & self.badness.internal_faces

    @cached_property
    def all4_triangles(self) -> frozenset[int]:
        """Bounded 3-faces whose three vertices all have degree 4."""
        return frozenset(f.id for f in self.triangles
                         if all(self.g.degree(v) == 4 for v in f.vertex_set()))

    @cached_property
    def outer_triangles(self) -> tuple[int, ...]:
        """Bounded 3-faces with a vertex on the outer face, in id order."""
        return tuple(f.id for f in self.triangles
                     if f.id not in self.internal_faces)

    def bounded_faces(self, lo: int = 0, hi: float = math.inf) -> list[Face]:
        """Bounded faces of length lo..hi, in id order."""
        return [f for f in self.g.faces
                if lo <= f.length <= hi and f.id != self.g.outer_face_id]

    @cached_property
    def tag(self) -> ClassTag:
        # uv lies on a 4- and a k-cycle iff simple u-v paths of lengths 3 and
        # k - 1 exist; a connected graph with only even faces has no odd cycle
        adj = self.g._adj
        odd = any(f.length % 2 for f in self.g.faces)
        open_ = [4, 5] if odd else [5]  # path lengths still to refute
        for u, v in self.g.edges():
            if not open_:
                break
            if _has_path(adj, u, v, 3):
                open_ = [n for n in open_ if not _has_path(adj, u, v, n)]
        return ClassTag(not odd or 4 in open_, 5 in open_)

    @cached_property
    def patches(self) -> list[TrianglePatch]:
        patches = []
        for members in map(sorted, _components(self.face_neighbors,
                                               self.triangle_ids)):
            edge_count: dict[tuple[int, int], int] = {}
            verts: set[int] = set()
            for fid in members:
                face = self.g.face(fid)
                verts |= face.vertex_set()
                for e in face.edge_set():
                    edge_count[e] = edge_count.get(e, 0) + 1
            patches.append(TrianglePatch(
                size=len(members),
                face_ids=tuple(members),
                vertices=frozenset(verts),
                edges=frozenset(edge_count),
                boundary_edges=frozenset(e for e, c in edge_count.items()
                                         if c == 1)))
        return patches

    @cached_property
    def badness(self) -> VertexFaceBadness:
        g = self.g
        at_vertex: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for f in self.triangles:
            for v in f.vertex_set():
                at_vertex[v].append(f.id)
        bad4, bad5, good5 = set(), set(), set()
        for v in range(g.vertex_count):
            fs = at_vertex[v]
            if g.degree(v) == 4:
                if len(fs) == 2 and self.adjacent(fs[0], fs[1]):
                    bad4.add(v)
            elif g.degree(v) == 5:
                pairs = sum(1 for a, b in itertools.combinations(fs, 2)
                            if self.adjacent(a, b))
                if len(fs) == 3 and pairs == 1:
                    bad5.add(v)
                else:
                    good5.add(v)
        diamonds = set()
        for f in self.triangles:
            for other in self.face_neighbors[f.id]:
                if other not in self.triangle_ids:
                    continue
                shared = f.vertex_set() & g.face(other).vertex_set()
                if len(shared) == 2 and all(g.degree(v) == 4 for v in shared):
                    diamonds.add(f.id)
                    diamonds.add(other)
        outer = g.outer_vertices()
        special: dict[int, frozenset[int]] = {}
        for f in self.bounded_faces(5, 5):
            fv = f.vertex_set()
            found = set()
            for other in self.face_neighbors[f.id]:
                if other == g.outer_face_id:
                    continue
                of = g.face(other)
                shared_internal = fv & of.vertex_set() & self.internal_vertices
                if of.length == 3:
                    if (len(shared_internal) == 2
                            and len(of.vertex_set() & outer) == 1):
                        found.add(other)
                elif of.length == 4:
                    if (len(shared_internal) == 2
                            and len(of.vertex_set() & outer) == 2
                            and all(g.face(x).length != 3
                                    for x in self.face_neighbors[other]
                                    if x != g.outer_face_id)):
                        found.add(other)
            special[f.id] = frozenset(found)
        return VertexFaceBadness(
            bad4=frozenset(bad4),
            bad5=frozenset(bad5),
            good5=frozenset(good5),
            diamond_faces=frozenset(diamonds),
            triangles_at_vertex=tuple(tuple(sorted(fs)) for fs in at_vertex),
            internal_vertices=self.internal_vertices,
            internal_faces=self.internal_faces,
            special_faces=special)

    def bad_witnesses(self, verts: Sequence[int]) -> tuple[int, ...]:
        """Vertices of degree >= 4 off the cycle with four or more
        neighbours on it, found from the cycle's own neighbourhoods."""
        on_cycle = set(verts)
        hits = Counter(u for v in verts for u in self.g.neighbors(v)
                       if u not in on_cycle)
        return tuple(sorted(u for u, n in hits.items()
                            if n >= 4 and self.g.degree(u) >= 4))

    def separates(self, verts: Sequence[int]) -> bool:
        """Whether vertices lie off the cycle on both of its sides.

        At each cycle vertex the rotation from the previous cycle vertex to
        the next runs along one side, and on to the previous along the
        other.  The graph is connected, so every component off the cycle has
        a neighbour on it, and no faces need tracing.
        """
        on_cycle = set(verts)
        seen = set()
        for i, v in enumerate(verts):
            rot = self.g.neighbors(v)
            k = rot.index(verts[i - 1])
            side = 0
            for w in rot[k + 1:] + rot[:k]:
                if w == verts[(i + 1) % len(verts)]:
                    side = 1
                elif w not in on_cycle:
                    seen.add(side)
            if len(seen) == 2:
                return True
        return False

    def separating(self, max_len: int, good: bool = False
                   ) -> Iterator[tuple[int, ...]]:
        """Separating cycles of length at most ``max_len`` (good ones only
        when ``good``), as vertex tuples, lazily in enumeration order."""
        for c in self.cycles(max_len):
            if self.separates(c.vertices) and not (
                    good and self.bad_witnesses(c.vertices)):
                yield c.vertices


def class_membership(g: PlaneGraph) -> ClassTag:
    """Test the two forbidden cycle adjacencies (cycles share an edge) by
    short u-v path searches per edge uv and by face parity, as in ClassTag."""
    return _Analysis(g).tag


def find_triangle_patches(g: PlaneGraph) -> list[TrianglePatch]:
    """Maximal edge-glued groups of bounded 3-faces; each 3-face in one patch."""
    return _Analysis(g).patches


def _cycle_of(g: PlaneGraph, c: Cycle | Sequence[int]) -> Cycle:
    if isinstance(c, Cycle):
        verts = c.vertices
    else:
        verts = tuple(c)
    if len(verts) < 3 or len(set(verts)) != len(verts):
        raise NotACycle(f"{verts} is not a simple cycle")
    for i, u in enumerate(verts):
        if not g.has_edge(u, verts[(i + 1) % len(verts)]):
            raise NotACycle(f"{verts} misses edge at position {i}")
    return Cycle(verts)


def _chords_and_shared_neighbors(g: PlaneGraph, verts: Sequence[int],
                                 pool: frozenset[int]) -> list[tuple[int, ...]]:
    """Chords (a, b) of a cycle, and (a, b, u) for non-adjacent cycle
    vertices a, b with a common neighbor u in ``pool``, pair by pair."""
    m = len(verts)
    consecutive = {_norm_edge(verts[i], verts[(i + 1) % m]) for i in range(m)}
    found: list[tuple[int, ...]] = []
    for i in range(m):
        for j in range(i + 1, m):
            a, b = verts[i], verts[j]
            if not g.has_edge(a, b):
                found += [(a, b, u) for u in sorted(
                    set(g.neighbors(a)) & set(g.neighbors(b)) & pool)]
            elif _norm_edge(a, b) not in consecutive:
                found.append((a, b))
    return found


def cycle_sides(g: PlaneGraph, cycle: Cycle | Sequence[int]
                ) -> tuple[frozenset[int], frozenset[int]]:
    """(interior, exterior) vertex sets of a cycle, relative to the outer face.

    The exterior holds the vertices off the cycle on the faces reached from
    the outer face across edges off the cycle: two faces sharing such an
    edge lie on the same side, and a cycle edge always separates the two
    faces beside it.  The interior holds every other vertex off the cycle.
    """
    cyc = _cycle_of(g, cycle)
    cyc_edges = cyc.edge_set()
    across: list[list[int]] = [[] for _ in g.faces]
    for u, v in g.edges():
        if (u, v) not in cyc_edges:
            f1, f2 = g.faces_at_edge(u, v)
            across[f1].append(f2)
            across[f2].append(f1)
    outside = _reach(across, g.outer_face_id, frozenset(range(len(across))))
    outer = cyc.vertex_set().union(*(g.face(f).boundary for f in outside))
    return frozenset(range(g.vertex_count)) - outer, outer - cyc.vertex_set()


def classify_cycle(g: PlaneGraph, cycle: Cycle | Sequence[int]
                   ) -> CycleClassification:
    """Good/bad, separating, chord, and shared-interior-neighbor flags.

    Bad means: some vertex of degree >= 4 off the cycle has at least four
    neighbors on it.  The interior is the side of the cycle away from the
    outer face.
    """
    cyc = _cycle_of(g, cycle)
    bad_witnesses = _Analysis(g).bad_witnesses(cyc.vertices)
    interior, exterior = cycle_sides(g, cyc)
    found = _chords_and_shared_neighbors(g, cyc.vertices, interior)
    cn_witnesses = [w for w in found if len(w) == 3]
    return CycleClassification(
        cycle=cyc,
        is_bad=bool(bad_witnesses),
        bad_witnesses=bad_witnesses,
        separating=bool(interior) and bool(exterior),
        has_chord=len(cn_witnesses) < len(found),
        has_internal_common_neighbor=bool(cn_witnesses),
        common_neighbor_witnesses=tuple(cn_witnesses),
        interior=interior,
        exterior=exterior)


def classify_vertices_and_faces(g: PlaneGraph) -> VertexFaceBadness:
    """Tags used by the discharging rules.

    A 4-vertex is bad when its incident 3-faces are exactly two adjacent
    ones; a 5-vertex is bad when it sits on exactly three 3-faces of which
    exactly one pair is adjacent (one triangle isolated).  A 3-face is in a
    diamond when some edge-adjacent 3-face shares with it exactly two
    vertices, both of degree 4.
    """
    return _Analysis(g).badness


def _is_wheel4(p: TrianglePatch) -> bool:
    """Union of 4 triangles isomorphic to the 4-spoke wheel."""
    if len(p.vertices) != 5 or len(p.edges) != 8:
        return False
    hubs = [v for v in p.vertices if sum(1 for e in p.edges if v in e) == 4]
    if len(hubs) != 1:
        return False
    rim = [v for v in p.vertices if v != hubs[0]]
    rim_edges = [e for e in p.edges if hubs[0] not in e]
    return len(rim_edges) == 4 and all(
        sum(1 for e in rim_edges if r in e) == 2 for r in rim)


def verify_structural_lemmas(g: PlaneGraph) -> list[LemmaReport]:
    """Run every structural check applicable to ``g``.

    Theorem checks are expected to hold for class members; precondition
    checks probe the hypotheses the reduction arguments need, and a failure
    only reports the witnesses that make the graph reducible.
    """
    an = _Analysis(g)
    tag = an.tag
    reports: list[LemmaReport] = []

    def report(check_id: str, kind: str, witnesses: Sequence) -> None:
        reports.append(LemmaReport(check_id, kind, not witnesses,
                                   tuple(witnesses)))

    if tag.in_g1 or tag.in_g2:
        an.cycles(8 if tag.in_g2 else 7)  # one enumeration for both classes

    def lengths_at(fid: int) -> list[tuple[int, int]]:
        return [(n, g.face(n).length) for n in an.face_neighbors[fid]]

    if tag.in_g1:
        w = tuple((f.id, n) for f in g.faces if f.length == 3
                  for n, ln in lengths_at(f.id) if ln == 4)
        report("g1-no-3-face-adjacent-to-4-face", "theorem", w)
        big = tuple(p for p in an.patches if p.size >= 3)
        report("g1-no-triangle-patch-3plus", "theorem", big)
        w2 = []
        for a in sorted(an.triangle_ids):
            for b in an.face_neighbors[a]:
                if b in an.triangle_ids:
                    w2 += [(a, b, n) for n, ln in lengths_at(a)
                           if n != b and ln < 6]
        report("g1-adjacent-3-face-pair-neighbors-6plus", "theorem", w2)
        tris_at = an.badness.triangles_at_vertex
        w3 = tuple(v for v in range(g.vertex_count)
                   if g.degree(v) >= 4 and len(tris_at[v]) > g.degree(v) - 2)
        report("g1-vertex-triangle-incidence-bound", "theorem", w3)
        bad_cycles = tuple(c.vertices for c in an.cycles(7)
                           if an.bad_witnesses(c.vertices))
        report("g1-short-cycles-good", "theorem", bad_cycles)

    if tag.in_g2:
        oversized = tuple(p for p in an.patches if p.size >= 5)
        bad_wheels = [p for p in an.patches if p.size == 4 and not _is_wheel4(p)]
        report("g2-triangle-patch-size-bound", "theorem", oversized)
        report("g2-4-patch-is-wheel", "theorem", bad_wheels)
        wp = []
        for p in an.patches:
            if p.size not in (2, 3, 4):
                continue
            for u, v in sorted(p.edges):
                profile = sorted(g.face(f).length for f in g.faces_at_edge(u, v))
                if profile != [3, 3] and not (profile[0] == 3 and profile[1] >= 7):
                    wp.append((p.face_ids, (u, v), tuple(profile)))
        report("g2-patch-edge-face-profile", "theorem", wp)
        tris_at = an.badness.triangles_at_vertex
        w3 = tuple(v for v in range(g.vertex_count)
                   if g.degree(v) >= 5 and len(tris_at[v]) > g.degree(v) - 2)
        report("g2-vertex-triangle-incidence-bound", "theorem", w3)

    report("internal-min-degree-4", "precondition", an.low_degree)
    if tag.in_g1:
        report("g1-no-separating-7minus-cycle", "precondition",
               tuple(an.separating(7)))
    if tag.in_g2:
        report("g2-no-separating-good-8minus-cycle", "precondition",
               tuple(an.separating(8, good=True)))
    report("outer-chordless-no-shared-interior-neighbor", "precondition",
           an.outer_witnesses)

    if tag.in_g2:
        int444 = an.internal_triangles & an.all4_triangles
        w10 = tuple((a, b) for a in sorted(int444)
                    for b in an.face_neighbors[a]
                    if b > a and b in int444 and an.shared_edges(a, b) == 1)
        report("no-edge-sharing-internal-444-pair", "precondition", w10)
    return reports


def identify_and_reduce(g: PlaneGraph, center_v: int,
                        kept_pair: Iterable[int],
                        mode: Optional[str] = "g2") -> PlaneGraph:
    """Delete the center, its other two neighbors, and merge the kept pair.

    The center must be a 4-vertex and the kept pair must be opposite in its
    rotation.  Structural refusals (loop, parallel edge, bad 4-cycle
    through the kept pair and the center) are checked before internality so
    that impossible identifications are reported as such even on graphs
    where the vertices touch the outer face.  With mode "g1"/"g2" the
    result must stay in the respective class, otherwise the identification
    is refused as creating a forbidden adjacency.
    """
    if g.degree(center_v) != 4:
        raise NotInternal(f"center {center_v} is not a 4-vertex")
    rot = g.neighbors(center_v)
    kept = tuple(sorted(kept_pair))
    opposite = (tuple(sorted((rot[0], rot[2]))), tuple(sorted((rot[1], rot[3]))))
    if kept not in opposite:
        raise ValueError(f"kept pair {kept} is not opposite at {center_v}")
    other = opposite[1] if kept == opposite[0] else opposite[0]
    removed = frozenset({center_v, *other})
    a, b = kept
    if g.has_edge(a, b):
        raise CreatesLoop(f"kept pair {a},{b} adjacent: identification loops")
    common = (set(g.neighbors(a)) & set(g.neighbors(b))) - removed
    if common:
        raise CreatesParallelEdge(
            f"{a},{b} share neighbors {sorted(common)} outside the removed set")
    # a, b share no neighbour outside the removed set, so each 4-cycle
    # through a, b and the center is (a, center, b, x), x in ``other``, and
    # only the other y of ``other`` (then of degree >= 4) can see all four:
    # both cycles close and are bad exactly when x, y are adjacent
    if g.has_edge(*other) and all(g.has_edge(x, z) for x in other for z in kept):
        c = min(min(_cyclic_min(c), _cyclic_min(c[::-1]))
                for c in [(a, center_v, b, x) for x in other])
        raise BadFourCyclePresent(f"bad 4-cycle {c}")
    touching = {center_v, a, b, *other} & g.outer_vertices()
    if touching:
        raise NotInternal(f"vertices {sorted(touching)} lie on the outer face")

    # merged rotation: splice b's rotation into a's at the slot the center held
    rot_a, rot_b = g.neighbors(a), g.neighbors(b)
    ia, ib = rot_a.index(center_v), rot_b.index(center_v)
    spliced = rot_a[:ia] + rot_b[ib + 1:] + rot_b[:ib] + rot_a[ia + 1:]
    old_ids = [v for v in range(g.vertex_count) if v not in removed and v != b]
    new_id = {v: i for i, v in enumerate(old_ids)}
    new_id[b] = new_id[a]
    rotations = [[new_id[x] for x in (spliced if v == a else g.neighbors(v))
                  if x not in removed] for v in old_ids]
    hint = [new_id[x] for x in g.outer_face.boundary]
    reduced = build_from_rotation(len(old_ids), rotations, hint)
    if mode in ("g1", "g2"):
        tag = class_membership(reduced)
        ok = tag.in_g1 if mode == "g1" else tag.in_g2
        if not ok:
            raise CreatesForbiddenAdjacency(
                f"identified graph leaves class {mode}")
    elif mode is not None:
        raise ValueError(f"unknown mode {mode!r}")
    return reduced
