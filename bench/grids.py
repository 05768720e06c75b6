"""Lattice patches built from coordinates, and seeded vertex relabelling.

Every generator places its vertices in the plane, joins lattice neighbours
with straight segments and orders each rotation clockwise by angle, so the
result is a straight-line plane embedding that ``build_from_rotation``
accepts as it is.

* ``triangulated_grid(s)``: the s x s square grid with the diagonal from
  (x, y) to (x + 1, y + 1) in every cell; it has 4-cycles next to 5- and
  6-cycles, so it lies in neither class.
* ``square_grid(s)``: the s x s square grid; bipartite, so it has no
  5-cycle and lies in g1, while two squares sharing an edge make a 6-cycle,
  so it is not in g2.
* ``trihexagonal_patch(a, b)``: a patch of the kagome lattice, interior
  degree 4, every triangle isolated and no 4-cycle, so it lies in both.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from dpcolor import PlaneGraph, build_from_rotation

Point = tuple[float, float]


def _plane_graph(points: Sequence[Point],
                 edges: Sequence[tuple[int, int]]) -> PlaneGraph:
    nbrs: list[list[int]] = [[] for _ in points]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotations = []
    for v, (x, y) in enumerate(points):
        rotations.append(sorted(
            nbrs[v], key=lambda u: -math.atan2(points[u][1] - y,
                                               points[u][0] - x)))
    return build_from_rotation(len(points), rotations)


def _square_lattice(side: int, diagonals: bool) -> PlaneGraph:
    if side < 2:
        raise ValueError("a grid needs side >= 2")
    points = [(float(x), float(y)) for y in range(side) for x in range(side)]
    edges = []
    for y in range(side):
        for x in range(side):
            v = y * side + x
            if x + 1 < side:
                edges.append((v, v + 1))
            if y + 1 < side:
                edges.append((v, v + side))
            if diagonals and x + 1 < side and y + 1 < side:
                edges.append((v, v + side + 1))
    return _plane_graph(points, edges)


def triangulated_grid(side: int) -> PlaneGraph:
    """side x side grid with one diagonal per cell; n = side**2."""
    return _square_lattice(side, diagonals=True)


def square_grid(side: int) -> PlaneGraph:
    """side x side grid of unit squares; n = side**2."""
    return _square_lattice(side, diagonals=False)


def trihexagonal_patch(a_max: int, b_max: int) -> PlaneGraph:
    """Kagome patch: the triangular-lattice points (a, b) with 0 <= a < a_max
    and 0 <= b < b_max, minus the sublattice of even (a, b); vertices of
    degree at most 1 are pruned so that no dangling edge remains."""
    keep = {(a, b) for a in range(a_max) for b in range(b_max)
            if a % 2 or b % 2}
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    pruned = True
    while pruned:
        low = {p for p in keep
               if sum((p[0] + da, p[1] + db) in keep for da, db in steps) <= 1}
        pruned = bool(low)
        keep -= low
    if not keep:
        raise ValueError("patch too small")
    order = sorted(keep, key=lambda p: (p[1], p[0]))
    index = {p: i for i, p in enumerate(order)}
    points = [(a + b / 2, b * math.sqrt(3) / 2) for a, b in order]
    edges = [(index[p], index[q]) for p in order
             for q in ((p[0] + 1, p[1]), (p[0], p[1] + 1), (p[0] - 1, p[1] + 1))
             if q in keep]
    return _plane_graph(points, edges)


def relabel(g: PlaneGraph, seed: int
            ) -> tuple[int, list[list[int]], Optional[list[int]]]:
    """``build_from_rotation`` arguments for ``g`` under a seeded vertex
    permutation.

    The outer face goes along as a hint, so that ties in the default
    outer-face choice cannot pick another face after relabelling.
    """
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    rotations: list[list[int]] = [[] for _ in perm]
    for v, rot in enumerate(g.rotations):
        rotations[perm[v]] = [perm[u] for u in rot]
    hint = [perm[v] for v in g.outer_face.boundary]
    return g.vertex_count, rotations, hint or None
