"""Embedding construction, face tracing, and cycle enumeration."""

from __future__ import annotations

import random
import sys

import pytest

from dpcolor import (BadHint, InconsistentRotation, NonPlanarClosure,
                     build_from_rotation, enumerate_cycles, face_shared_edges)
from conftest import (holed_grid, make_cycle, relabel, square_grid,
                      triangulated_grid)
from oracles import brute_force_cycles, enumerate_cycles_unpruned


def test_k4_has_four_triangles(k4):
    assert len(k4.faces) == 4
    assert all(f.length == 3 for f in k4.faces)


def test_cycle_bounds_two_faces(c5):
    assert len(c5.faces) == 2
    assert all(f.length == 5 for f in c5.faces)


def test_single_edge_one_face_of_length_two(single_edge):
    assert len(single_edge.faces) == 1
    assert single_edge.faces[0].length == 2
    # Euler: 2 - 1 + 1 == 2
    assert single_edge.vertex_count - single_edge.edge_count + 1 == 2


def test_face_handshake(k4, c7, w4, octahedron, hex_prism):
    for g in (k4, c7, w4, octahedron, hex_prism):
        assert sum(f.length for f in g.faces) == 2 * g.edge_count
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_euler_on_fixtures(k4, c7, w4, octahedron, hex_prism, k1):
    for g in (k4, c7, w4, octahedron, hex_prism, k1):
        assert g.vertex_count - g.edge_count + len(g.faces) == 2


def test_w4_faces(w4):
    lengths = sorted(f.length for f in w4.faces)
    assert lengths == [3, 3, 3, 3, 4]
    assert w4.outer_face.length == 4


def test_rejects_asymmetric_rotation():
    with pytest.raises(InconsistentRotation):
        build_from_rotation(3, [(1,), (0, 2), ()])


def test_rejects_loop_and_duplicate():
    with pytest.raises(InconsistentRotation):
        build_from_rotation(2, [(0, 1), (0,)])
    with pytest.raises(InconsistentRotation):
        build_from_rotation(2, [(1, 1), (0, 0)])


def test_rejects_disconnected():
    with pytest.raises(NonPlanarClosure):
        build_from_rotation(4, [(1,), (0,), (3,), (2,)])
    # toroidal K4 beside a K2 passes Euler (6 - 7 + 3 = 2); only the
    # connectivity check rejects it
    with pytest.raises(NonPlanarClosure, match="^graph is disconnected$"):
        build_from_rotation(6, [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 2, 1),
                                (5,), (4,)])


def test_rejects_nonplanar_closure():
    # K4 with one rotation flipped traces to the torus, not the sphere
    with pytest.raises(NonPlanarClosure):
        build_from_rotation(4, [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 2, 1)])


def test_outer_face_hint_and_bad_hint():
    g = build_from_rotation(5, [(1, 4, 3), (2, 4, 0), (3, 4, 1), (0, 4, 2),
                                (0, 1, 2, 3)], outer_face_hint=[0, 1, 2, 3])
    assert g.outer_face.length == 4
    with pytest.raises(BadHint):
        build_from_rotation(4, [(1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)],
                            outer_face_hint=[0, 1, 2, 3])


def test_outer_face_default_longest_lex_tiebreak():
    from dpcolor.plane_graph import _cyclic_min
    g = make_cycle(6)
    longest = max(f.length for f in g.faces)
    best = min((f for f in g.faces if f.length == longest),
               key=lambda f: _cyclic_min(f.boundary))
    assert g.outer_face_id == best.id
    # W4: the unique longest face wins outright
    w = build_from_rotation(5, [(1, 4, 3), (2, 4, 0), (3, 4, 1), (0, 4, 2),
                                (0, 1, 2, 3)])
    assert w.outer_face.length == 4


def test_rebuild_is_deterministic(w4, octahedron):
    for g in (w4, octahedron):
        h = build_from_rotation(g.vertex_count, g.rotations)
        assert h.outer_face_id == g.outer_face_id
        assert [f.boundary for f in h.faces] == [f.boundary for f in g.faces]


def test_enumerate_cycles_c6():
    g = make_cycle(6)
    cycles = enumerate_cycles(g, 8)
    assert len(cycles) == 1 and cycles[0].length == 6


def test_enumerate_cycles_k4(k4):
    assert len(enumerate_cycles(k4, 4)) == 7
    assert len(enumerate_cycles(k4, 3)) == 4


def test_enumerate_cycles_against_bruteforce(corpus_n6):
    rng = random.Random(7)
    sample = rng.sample(corpus_n6, 25)
    for g in sample:
        got = {c.vertices for c in enumerate_cycles(g, 6)}
        want = brute_force_cycles(g.vertex_count, g.edges(), 6)
        assert got == want


def test_enumerate_cycles_against_bruteforce_larger():
    from dpcolor import CorpusSpec, corpus_generate
    for g in corpus_generate(CorpusSpec(7, 8, seed=11, per_size_samples=3)):
        got = {c.vertices for c in enumerate_cycles(g, 8)}
        want = brute_force_cycles(g.vertex_count, g.edges(), 8)
        assert got == want


def test_enumerate_cycles_matches_unpruned_oracle(corpus_n6, corpus_g1_n9,
                                                  corpus_g2_n9):
    # the distance-pruned search and its length buckets against every simple
    # path and one final sort: equal lists, in the same order; the relabelled
    # grids have vertices beyond max_len // 2 of most roots, and C10 has a
    # bound of at least n
    grids = [triangulated_grid(6), square_grid(6), holed_grid()]
    cases = ([(g, range(2, 9)) for g in corpus_n6]
             + [(g, (7, 8)) for g in corpus_g1_n9 + corpus_g2_n9]
             + [(relabel(g, s), range(3, 9)) for g in grids for s in range(3)]
             + [(make_cycle(10), (10, 50))])
    for g, bounds in cases:
        for max_len in bounds:
            assert enumerate_cycles(g, max_len) == \
                enumerate_cycles_unpruned(g, max_len)


def test_enumerate_cycles_whole_length_of_long_cycle():
    # the path search runs on an explicit stack, so a cycle longer than the
    # default recursion limit is enumerated at its whole length
    n = 1200
    assert sys.getrecursionlimit() < n
    cycles = enumerate_cycles(make_cycle(n), n)
    assert [c.vertices for c in cycles] == [tuple(range(n))]


def test_face_shared_edges_cases(c5, w4):
    f1, f2 = c5.faces
    assert face_shared_edges(c5, f1, f2) == 5
    tris = [f for f in w4.faces if f.length == 3]
    counts = sorted(face_shared_edges(w4, tris[0], t) for t in tris[1:])
    assert counts == [0, 1, 1]


def test_k1_degenerate(k1):
    assert len(k1.faces) == 1
    assert k1.outer_face.length == 0
    assert enumerate_cycles(k1, 5) == []


def test_c7_two_faces(c7):
    assert len(c7.faces) == 2
    assert all(f.length == 7 for f in c7.faces)
