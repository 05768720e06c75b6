"""The lattice generators and the seeded relabelling."""

from collections import Counter

import pytest

from dpcolor import build_from_rotation, chromatic, class_membership

import grids

CASES = [
    (grids.triangulated_grid, (6,), "neither", 3),
    (grids.square_grid, (6,), "g1", 2),
    (grids.trihexagonal_patch, (9, 9), "both", 3),
]


def face_lengths(g):
    return Counter(f.length for f in g.faces)


@pytest.mark.parametrize("make, dims, tag, chi", CASES)
def test_grid_builds_through_build_from_rotation(make, dims, tag, chi):
    g = make(*dims)
    again = build_from_rotation(g.vertex_count, g.rotations)
    assert face_lengths(again) == face_lengths(g)
    assert g.vertex_count - g.edge_count + len(g.faces) == 2


@pytest.mark.parametrize("make, dims, tag, chi", CASES)
def test_grid_class_tag_and_chromatic_number(make, dims, tag, chi):
    g = make(*dims)
    assert class_membership(g).label == tag
    assert chromatic(g, 4) == chi


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("make, dims, tag, chi", CASES)
def test_relabelling_keeps_tags_faces_and_chi(make, dims, tag, chi, seed):
    g = make(*dims)
    h = build_from_rotation(*grids.relabel(g, seed))
    assert h.vertex_count == g.vertex_count
    assert class_membership(h) == class_membership(g)
    assert face_lengths(h) == face_lengths(g)
    assert h.outer_face.length == g.outer_face.length
    assert chromatic(h, 4) == chromatic(g, 4) == chi


def test_grid_sizes():
    assert grids.triangulated_grid(10).vertex_count == 100
    assert grids.triangulated_grid(10).edge_count == 3 * 100 - 4 * 10 + 1
    assert grids.square_grid(10).edge_count == 2 * 10 * 9
    kagome = grids.trihexagonal_patch(13, 12)
    degrees = Counter(kagome.degree(v) for v in range(kagome.vertex_count))
    assert max(degrees) == 4 and min(degrees) >= 2
