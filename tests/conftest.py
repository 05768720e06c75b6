"""Shared fixtures: small named graphs and session-cached corpora."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dpcolor import (CorpusSpec, build_from_rotation, corpus_generate,
                     embed_planar)


def cycle_rotations(n):
    return [((v - 1) % n, (v + 1) % n) for v in range(n)]


def make_cycle(n):
    return build_from_rotation(n, cycle_rotations(n))


def triangulated_grid(side):
    """The side x side grid with the diagonal (x, y)-(x+1, y+1) in each
    cell; vertex y * side + x sits at (x, y), rotations run clockwise."""
    return _grid(side, ((1, 0), (0, 1), (1, 1)))


def square_grid(side):
    """The side x side grid without diagonals: bipartite, with 4-faces."""
    return _grid(side, ((1, 0), (0, 1)))


def _grid(side, steps):
    points = [(x, y) for y in range(side) for x in range(side)]
    nbrs = [[] for _ in points]
    for x, y in points:
        for dx, dy in steps:
            if x + dx < side and y + dy < side:
                v, u = y * side + x, (y + dy) * side + x + dx
                nbrs[v].append(u)
                nbrs[u].append(v)
    rotations = [sorted(ns, key=lambda u: -math.atan2(
        points[u][1] - points[v][1], points[u][0] - points[v][0]))
        for v, ns in enumerate(nbrs)]
    return build_from_rotation(len(points), rotations)


K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)]


def joined_pair(n, edges, m=None, other=None):
    """The graph (n vertices, ``edges``) on 0..n-1 and a second one (m
    vertices, ``other``; a copy of the first by default) on n..n+m-1,
    joined by the path n-1, n+m, n of length 2."""
    m, other = (n, edges) if other is None else (m, other)
    both = list(edges) + [(a + n, b + n) for a, b in other]
    return embed_planar(n + m + 1, both + [(n - 1, n + m), (n, n + m)],
                        limit=n + m + 1)


def holed_grid():
    """triangulated_grid(6), outer face kept, less 18 inner edges: it has
    5-faces, internal all-degree-4 triangles and one bad 5-vertex (15)."""
    grid = triangulated_grid(6)
    drop = {(1, 8), (3, 9), (6, 7), (6, 13), (7, 8), (7, 13), (7, 14),
            (8, 9), (12, 19), (14, 21), (15, 21), (16, 17), (16, 23),
            (19, 20), (20, 26), (24, 25), (25, 31), (28, 34)}
    rotations = [[u for u in grid.neighbors(v)
                  if (min(u, v), max(u, v)) not in drop]
                 for v in range(grid.vertex_count)]
    return build_from_rotation(grid.vertex_count, rotations,
                               outer_face_hint=list(grid.outer_face.boundary))


@pytest.fixture(scope="session")
def c4():
    return make_cycle(4)


@pytest.fixture(scope="session")
def c5():
    return make_cycle(5)


@pytest.fixture(scope="session")
def c6():
    return make_cycle(6)


@pytest.fixture(scope="session")
def c7():
    return make_cycle(7)


@pytest.fixture(scope="session")
def k4():
    return build_from_rotation(4, [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)])


@pytest.fixture(scope="session")
def k4_minus_edge():
    # triangles 0,1,2 and 0,1,3 sharing edge 01; outer quad 2-0-3-1
    return build_from_rotation(4, [(2, 1, 3), (3, 0, 2), (0, 1), (1, 0)])


@pytest.fixture(scope="session")
def w4():
    # rim 0..3, hub 4; outer face is the rim
    return build_from_rotation(
        5, [(1, 4, 3), (2, 4, 0), (3, 4, 1), (0, 4, 2), (0, 1, 2, 3)])


@pytest.fixture(scope="session")
def octahedron():
    return build_from_rotation(6, [
        (1, 2, 3, 4), (0, 4, 5, 2), (0, 1, 5, 3), (0, 2, 5, 4),
        (0, 3, 5, 1), (1, 4, 3, 2)])


@pytest.fixture(scope="session")
def single_edge():
    return build_from_rotation(2, [(1,), (0,)])


@pytest.fixture(scope="session")
def k1():
    return build_from_rotation(1, [()])


@pytest.fixture(scope="session")
def hex_prism():
    # two hexagons 0..5 (outer) and 6..11 (inner), vertical edges i -> i+6
    rot = []
    for v in range(6):
        rot.append(((v - 1) % 6, (v + 1) % 6, v + 6))
    for v in range(6):
        base = v
        rot.append((base, 6 + (v + 1) % 6, 6 + (v - 1) % 6))
    return build_from_rotation(12, rot, outer_face_hint=list(range(6)))


@pytest.fixture(scope="session")
def corpus_n6():
    """Every connected planar graph with 3..6 vertices, embedded."""
    return list(corpus_generate(CorpusSpec(3, 6)))


@pytest.fixture(scope="session")
def corpus_g1_n6(corpus_n6):
    from dpcolor import class_membership
    return [g for g in corpus_n6 if class_membership(g).in_g1]


@pytest.fixture(scope="session")
def corpus_g2_n6(corpus_n6):
    from dpcolor import class_membership
    return [g for g in corpus_n6 if class_membership(g).in_g2]


@pytest.fixture(scope="session")
def corpus_g1_n9():
    """Exhaustive through n=6 plus seeded random samples for n=7..9."""
    return list(corpus_generate(CorpusSpec(3, 9, "g1", seed=20240801,
                                           per_size_samples=8)))


@pytest.fixture(scope="session")
def corpus_g2_n9():
    return list(corpus_generate(CorpusSpec(3, 9, "g2", seed=20240802,
                                           per_size_samples=8)))
