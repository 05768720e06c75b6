"""Answer checks and the file writers."""

from dpcolor import (RULESET_G1, Precoloring, Transversal, audit, cover_graph,
                     dp_colorable, find_transversal, full_cover,
                     load_document, parse, random_chooser)

import checks
import encode
import grids


def test_transversal_check_accepts_answer_and_rejects_a_matched_edge():
    g = grids.triangulated_grid(5)
    cover = full_cover(g, 5, random_chooser(3))
    t = find_transversal(cover_graph(g, cover))
    assert checks.transversal_failures(g, cover, t) == []
    u, v = g.edges()[0]
    bad = list(t.assignment)
    bad[v] = cover.matched_color(u, t.color(u), v)
    assert checks.transversal_failures(g, cover, Transversal(tuple(bad)))


def test_precolored_vertices_must_keep_their_colors():
    g = grids.square_grid(3)
    cover = full_cover(g, 4, random_chooser(1))
    t = find_transversal(cover_graph(g, cover))
    moved = Precoloring.of({0: t.color(0) % 4 + 1})
    assert checks.transversal_failures(g, cover, t, moved)


def test_counterexample_check_uses_find_transversal():
    c4 = grids.square_grid(2)
    verdict = dp_colorable(c4, 2)
    assert not verdict.all_colorable
    assert checks.counterexample_failures(c4, verdict.counterexample) == []
    good = full_cover(c4, 2)   # straight matchings: 2-colorable
    assert checks.counterexample_failures(c4, good)


def test_chain_and_planar_five_cover_checks():
    assert checks.chain_failures(3, 3, 4) == []
    assert checks.chain_failures(3, None, 2) == []
    assert checks.chain_failures(4, 3, 4)
    assert checks.planar_five_cover_failures(None)


def test_audit_check_passes_on_a_lattice():
    assert checks.audit_failures(audit(grids.square_grid(4), RULESET_G1)) == []


def test_valid_precoloring_is_valid_under_the_cover():
    g = grids.triangulated_grid(4)
    cover = full_cover(g, 5, random_chooser(9))
    face = next(f for f in g.faces if f.length == 3)
    pre = checks.valid_precoloring(g, cover, face.boundary).as_dict()
    for u in pre:
        for v in pre:
            if g.has_edge(u, v):
                assert cover.matched_color(u, pre[u], v) != pre[v]


def test_writers_round_trip_through_the_parsers():
    g = grids.trihexagonal_patch(7, 7)
    for data in (encode.graph6(g).encode(), encode.planar_code(g)):
        h = parse(load_document(data), embed_limit=g.vertex_count)
        assert sorted(h.edges()) == sorted(g.edges())
    assert parse(load_document(encode.planar_code(g))).rotations == g.rotations
