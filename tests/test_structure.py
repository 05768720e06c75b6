"""Class membership, patches, cycle/vertex/face tags, checks, reduction."""

from __future__ import annotations

import itertools

import pytest

from dpcolor import (RULESET_G1, RULESET_G2, BadFourCyclePresent, ClassTag,
                     CreatesLoop, CreatesParallelEdge, NotACycle, NotInternal,
                     audit, build_from_rotation, class_membership,
                     classify_cycle, classify_vertices_and_faces, cycle_sides,
                     embed_planar, enumerate_cycles, find_triangle_patches,
                     identify_and_reduce, plane_graph, structure,
                     verify_structural_lemmas)
from conftest import (holed_grid, make_cycle, relabel, square_grid,
                      triangulated_grid)
from oracles import (bad_witnesses_scan, class_membership_pairwise,
                     cycle_sides_face_bfs)


def wheel(spokes):
    # rim rotation (next, hub, prev) pairs with the hub's 0,1,2,... order
    rot = [((v + 1) % spokes, spokes, (v - 1) % spokes) for v in range(spokes)]
    rot.append(tuple(range(spokes)))
    return build_from_rotation(spokes + 1, rot)


def test_class_membership_examples(k4, w4):
    assert class_membership(k4).label == "both"
    w5 = wheel(5)
    tag5 = class_membership(w5)
    assert not tag5.in_g1
    assert class_membership(make_cycle(10)).label == "both"
    assert class_membership(w4) == class_membership(w4)
    assert not class_membership(w4).in_g1 and class_membership(w4).in_g2


def test_triangle_patches_k4_minus_edge(k4_minus_edge):
    patches = find_triangle_patches(k4_minus_edge)
    assert len(patches) == 1 and patches[0].size == 2


def test_triangle_patches_w4_is_wheel(w4):
    patches = find_triangle_patches(w4)
    assert len(patches) == 1
    p = patches[0]
    assert p.size == 4
    assert p.vertices == frozenset(range(5))
    assert len(p.edges) == 8
    assert len(p.boundary_edges) == 4  # the rim


def test_triangle_patches_none_on_cycle(c6):
    assert find_triangle_patches(c6) == []


def test_classify_cycle_triangle_always_good(w4, k4):
    assert classify_cycle(w4, (0, 1, 4)).is_good
    assert classify_cycle(k4, (0, 1, 2)).is_good


def test_classify_cycle_w4_rim_bad(w4):
    cc = classify_cycle(w4, (0, 1, 2, 3))
    assert cc.is_bad and cc.bad_witnesses == (4,)
    assert not cc.separating  # hub is interior, exterior empty
    assert cc.interior == frozenset({4})


def test_classify_cycle_prism_outer_not_separating(hex_prism):
    cc = classify_cycle(hex_prism, tuple(range(6)))
    assert not cc.separating
    assert cc.exterior == frozenset()
    assert cc.interior == frozenset(range(6, 12))


def test_classify_cycle_separating():
    # triangle inside a triangle with a center: the middle shell separates
    g = embed_planar(7, [(0, 1), (1, 2), (2, 0),
                         (3, 4), (4, 5), (5, 3),
                         (0, 3), (1, 4), (2, 5),
                         (3, 6), (4, 6), (5, 6)])
    cc = classify_cycle(g, (3, 4, 5))
    assert cc.separating
    sides = {frozenset({6}), frozenset({0, 1, 2})}
    assert {cc.interior, cc.exterior} == sides


def test_classify_cycle_chord_and_common_neighbor(k4, w4):
    assert classify_cycle(k4, (0, 1, 2)).has_chord is False
    rim = classify_cycle(w4, (0, 1, 2, 3))
    assert not rim.has_chord
    assert rim.has_internal_common_neighbor
    assert (0, 2, 4) in rim.common_neighbor_witnesses


def test_not_a_cycle(k4):
    with pytest.raises(NotACycle):
        classify_cycle(k4, (0, 1))
    with pytest.raises(NotACycle):
        classify_cycle(make_cycle(5), (0, 1, 3))


def test_w4_hub_not_bad4(w4):
    tags = classify_vertices_and_faces(w4)
    assert 4 not in tags.bad4
    assert len(tags.triangles_at_vertex[4]) == 4


def test_k4_minus_edge_no_diamond(k4_minus_edge):
    # the shared vertices of the two triangles have degree 3, not 4
    tags = classify_vertices_and_faces(k4_minus_edge)
    assert tags.diamond_faces == frozenset()


def test_diamond_detection():
    # two triangle faces over edge (0,1); both endpoints have degree 4
    g = build_from_rotation(6, [(2, 1, 3, 4), (5, 3, 0, 2), (1, 0), (0, 1),
                                (0,), (1,)])
    tags = classify_vertices_and_faces(g)
    assert g.degree(0) == 4 and g.degree(1) == 4
    assert tags.diamond_faces == frozenset({1, 2})
    assert tags.bad4 == frozenset({0, 1})


def test_bad5_vertex_constructed():
    # degree-5 hub on three triangles, exactly two of them adjacent
    edges = [(5, i) for i in range(5)]      # hub 5 over a,b,c,d,e = 0..4
    edges += [(0, 1), (1, 2), (3, 4)]        # triangles 5ab,5bc + isolated 5de
    g = embed_planar(6, edges)
    tags = classify_vertices_and_faces(g)
    assert 5 in tags.bad5
    assert 5 not in tags.good5


def test_good5_vertex_three_isolated_triangles():
    # degree-6 center cannot be bad5; use 5 with non-adjacent triangles
    edges = [(5, i) for i in range(5)]
    edges += [(0, 1), (2, 3)]  # only two triangles at the hub
    g = embed_planar(6, edges)
    tags = classify_vertices_and_faces(g)
    assert 5 in tags.good5


def test_lemma_reports_k4(k4):
    reports = {r.check_id: r for r in verify_structural_lemmas(k4)}
    # the all-triangle 4-clique genuinely violates the patch-size fact
    patch = reports["g1-no-triangle-patch-3plus"]
    assert not patch.holds and patch.witnesses[0].size == 3
    pair = reports["g1-adjacent-3-face-pair-neighbors-6plus"]
    assert not pair.holds
    assert reports["g1-short-cycles-good"].holds
    assert reports["g2-triangle-patch-size-bound"].holds
    assert reports["g2-4-patch-is-wheel"].holds
    low = reports["internal-min-degree-4"]
    assert not low.holds and low.witnesses == (3,)


def test_lemma_reports_w4(w4):
    reports = {r.check_id: r for r in verify_structural_lemmas(w4)}
    assert reports["g2-triangle-patch-size-bound"].holds
    assert reports["g2-4-patch-is-wheel"].holds
    profile = reports["g2-patch-edge-face-profile"]
    assert not profile.holds  # rim edges sit on a 3-face and the 4-face
    assert reports["internal-min-degree-4"].holds
    # rim pairs share the hub as an interior neighbor
    assert not reports["outer-chordless-no-shared-interior-neighbor"].holds


def test_lemma_reports_good_case(c6, hex_prism):
    for g in (c6, hex_prism):
        reports = verify_structural_lemmas(g)
        assert all(r.holds for r in reports if r.kind == "theorem")


def test_identify_octahedron_refuses_parallel(octahedron):
    with pytest.raises(CreatesParallelEdge):
        identify_and_reduce(octahedron, 0, (1, 3))


def test_identify_refuses_loop():
    # K5 minus one edge: the hub's opposite pair (1,3) is joined by a chord
    g = embed_planar(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3),
                         (3, 4), (4, 1), (1, 3)])
    rot = g.neighbors(0)
    kept = (rot[0], rot[2]) if g.has_edge(rot[0], rot[2]) else (rot[1], rot[3])
    assert g.has_edge(*kept)
    with pytest.raises(CreatesLoop):
        identify_and_reduce(g, 0, kept)


def _grid_patch():
    """Center 0 with ring 1..4, each ring vertex tied to an outer octagon."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    ring2 = list(range(5, 13))
    for i, v in enumerate((1, 2, 3, 4)):
        a = ring2[2 * i]
        b = ring2[2 * i + 1]
        edges += [(v, a), (v, b)]
    for i in range(8):
        edges.append((ring2[i], ring2[(i + 1) % 8]))
    return embed_planar(13, edges, limit=13)


def test_identify_succeeds_in_grid():
    g = _grid_patch()
    rot = g.neighbors(0)
    kept = (rot[0], rot[2])
    reduced = identify_and_reduce(g, 0, kept, mode=None)
    assert reduced.vertex_count == g.vertex_count - 4


def test_identify_validates_kept_pair(w4):
    with pytest.raises(ValueError):
        identify_and_reduce(w4, 4, (0, 4))
    with pytest.raises(NotInternal):
        identify_and_reduce(w4, 0, (1, 3))  # rim vertex has degree 3


def test_identify_not_internal():
    g = _grid_patch()
    rot = g.neighbors(1)
    # center on the ring: its neighborhood touches the outer octagon
    if g.degree(1) == 4:
        with pytest.raises(NotInternal):
            kept = (rot[0], rot[2])
            a, b = sorted(kept)
            if not g.has_edge(a, b):
                identify_and_reduce(g, 1, kept, mode=None)
            else:
                raise NotInternal("kept pair adjacent; equivalent refusal")


def test_identify_bad_four_cycle():
    # K5 less the edge 2-4: merging 2 and 4 across the center 0 is refused,
    # since 0, 2, 1, 4 bound a bad 4-cycle
    g = embed_planar(5, [e for e in itertools.combinations(range(5), 2)
                         if e != (2, 4)])
    with pytest.raises(BadFourCyclePresent):
        identify_and_reduce(g, 0, (2, 4), mode=None)


def test_identify_mode_checks_class():
    g = _grid_patch()
    rot = g.neighbors(0)
    kept = (rot[0], rot[2])
    reduced = identify_and_reduce(g, 0, kept, mode="g2")
    assert class_membership(reduced).in_g2


def test_bad5_incidence_recount():
    # independent recount of the constructed bad-5 pattern
    edges = [(5, i) for i in range(5)] + [(0, 1), (1, 2), (3, 4)]
    g = embed_planar(6, edges)
    tris = [f for f in g.faces
            if f.length == 3 and f.id != g.outer_face_id and 5 in f.boundary]
    assert len(tris) == 3
    shared = sum(1 for i in range(3) for j in range(i + 1, 3)
                 if len(tris[i].edge_set() & tris[j].edge_set()) >= 1)
    assert shared == 1  # exactly one adjacent pair, third triangle isolated
    assert 5 in classify_vertices_and_faces(g).bad5


def _pentagon_with_outer_triangle():
    rot = [
        (1, 7, 6, 5),
        (2, 0), (3, 1), (4, 2), (5, 3), (0, 4),
        (0, 7, 10),
        (0, 8, 6),
        (7, 9), (8, 10), (9, 6),
    ]
    return build_from_rotation(11, rot, outer_face_hint=list(range(6)))


def test_special_face_tagging():
    g = _pentagon_with_outer_triangle()
    tags = classify_vertices_and_faces(g)
    pent = next(f.id for f in g.faces if f.length == 5)
    tri = next(f.id for f in g.faces if f.length == 3)
    assert pent in tags.internal_faces
    assert tags.special_faces[pent] == frozenset({tri})


def test_five_face_contact_rule_paths():
    from dpcolor.structure import five_face_triangle_contact_rule
    g = _pentagon_with_outer_triangle()
    pent = next(f.id for f in g.faces if f.length == 5)
    tri = next(f.id for f in g.faces if f.length == 3)
    # the triangle here touches the outer face, so the labeled configuration
    # (internal all-4 triangle) does not apply
    assert five_face_triangle_contact_rule(g, pent, tri) is None
    # two 5-faces on one internal all-4 triangle: the far endpoint of the
    # shared edge 13-20 has an outer neighbour, that of 14-20 has none
    g = holed_grid()
    face = {f.vertex_set(): f.id for f in g.faces}
    tri = face[frozenset({13, 14, 20})]
    assert five_face_triangle_contact_rule(
        g, face[frozenset({13, 19, 20, 26, 27})], tri) is True
    assert five_face_triangle_contact_rule(
        g, face[frozenset({14, 15, 20, 21, 22})], tri) is False


def test_internal_444_pair_reported_as_reducible():
    # a class-g2 host whose interior holds two all-4 triangles over one edge:
    # the precondition check must flag the pair (the graph is reducible)
    ring = 22
    a, b, x, y = 22, 23, 24, 25
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    edges += [(a, x), (a, y), (b, x), (b, y), (x, y)]
    edges += [(a, 0), (a, 1), (x, 5), (b, 9), (b, 10), (y, 14)]
    g0 = embed_planar(26, edges, limit=26)
    g = build_from_rotation(26, g0.rotations,
                            outer_face_hint=list(range(ring)))
    assert class_membership(g).in_g2
    report = next(r for r in verify_structural_lemmas(g)
                  if r.check_id == "no-edge-sharing-internal-444-pair")
    assert report.kind == "precondition"
    assert not report.holds
    (f1, f2), = report.witnesses
    for fid in (f1, f2):
        face = g.face(fid)
        assert face.length == 3
        assert all(g.degree(v) == 4 for v in face.vertex_set())
    assert len(g.face(f1).edge_set() & g.face(f2).edge_set()) == 1


def test_class_tag_matches_pairwise_oracle(corpus_n6, corpus_g1_n9,
                                           corpus_g2_n9, k4, w4, hex_prism):
    # the path-length tag against every 4-cycle met with every 5- and
    # 6-cycle; the square grid is in g1 by face parity alone, and K4 (odd,
    # 4-cycles, no 5-cycle) runs the length-4 search to the end
    grids = [triangulated_grid(6), holed_grid()]
    graphs = (corpus_n6 + corpus_g1_n9 + corpus_g2_n9 + grids
              + [relabel(g, s) for g in grids for s in range(3)]
              + [square_grid(5), k4, w4, hex_prism, make_cycle(10)])
    labels = set()
    for g in graphs:
        pairwise = class_membership_pairwise(
            c.vertices for c in enumerate_cycles(g, 6))
        tag = class_membership(g)
        assert tag == ClassTag(*pairwise)
        labels.add(tag.label)
    assert labels == {"neither", "g1", "g2", "both"}
    assert class_membership(square_grid(5)).label == "g1"
    assert class_membership(k4).label == "both"


def test_cycle_facts_match_oracles(corpus_n6):
    # every cycle of length <= 8: the sides against the face two-coloring,
    # the bad flag against a scan of every vertex, the class tag against the
    # pairwise definition, and the predicates the checks read against
    # classify_cycle
    seen = {"separating": 0, "bad": 0, "cycles": 0}
    for g in corpus_n6 + [triangulated_grid(5)]:
        cycles = enumerate_cycles(g, 8)
        pairwise = class_membership_pairwise(c.vertices for c in cycles)
        assert class_membership(g) == ClassTag(*pairwise)
        an = structure._Analysis(g)
        for c in cycles:
            interior, exterior = cycle_sides_face_bfs(g, c.vertices)
            assert cycle_sides(g, c) == (interior, exterior)
            cc = classify_cycle(g, c)
            assert (cc.interior, cc.exterior) == (interior, exterior)
            assert cc.separating == (bool(interior) and bool(exterior))
            assert cc.bad_witnesses == bad_witnesses_scan(g, c.vertices)
            assert an.separates(c.vertices) == cc.separating
            assert an.bad_witnesses(c.vertices) == cc.bad_witnesses
            seen["separating"] += cc.separating
            seen["bad"] += cc.is_bad
            seen["cycles"] += 1
    assert min(seen.values()) > 0 and seen["separating"] < seen["cycles"]
    # the triangle 0-1-2 with the pendant path 0-3-4, whose face borders
    # itself across both bridges: outside by default, inside under the hint
    rot = [(1, 3, 2), (2, 0), (0, 1), (0, 4), (3,)]
    path = frozenset({3, 4})
    for hint, sides in ((None, (frozenset(), path)),
                        ([0, 1, 2], (path, frozenset()))):
        g = build_from_rotation(5, rot, hint)
        assert cycle_sides_face_bfs(g, (0, 1, 2)) == sides
        assert cycle_sides(g, (0, 1, 2)) == sides
    # a hexagon with the chord 0-3 drawn outside and vertex 6 between the
    # chord and the arc 1-2: with the outer face on 0, 3, 4, 5 it touches
    # only cycle vertices, and 6 is reached across the chord alone
    rot = [(3, 1, 5), (0, 6, 2), (3, 1, 6), (4, 2, 0), (5, 3), (4, 0), (2, 1)]
    hexagon = (0, 1, 2, 3, 4, 5)
    for hint, sides in (([0, 3, 4, 5], (frozenset(), frozenset({6}))),
                        (None, (frozenset({6}), frozenset()))):
        g = build_from_rotation(7, rot, hint)
        assert cycle_sides_face_bfs(g, hexagon) == sides
        assert cycle_sides(g, hexagon) == sides


def test_face_adjacency_matches_shared_edge_sets(corpus_n6, corpus_g1_n9,
                                                 corpus_g2_n9):
    # the analysis counts shared edges in one pass over the edges; the
    # oracle intersects the two boundaries' edge sets
    pairs = 0
    for g in (corpus_n6 + corpus_g1_n9 + corpus_g2_n9
              + [triangulated_grid(5), holed_grid()]):
        an = structure._Analysis(g)
        for f in g.faces:
            counts = {h.id: plane_graph.face_shared_edges(g, f, h)
                      for h in g.faces if h.id != f.id}
            for h, n in counts.items():
                assert an.shared_edges(f.id, h) == n
                assert an.adjacent(f.id, h) == (n > 0)
            pairs += len(counts)
            assert an.face_neighbors[f.id] == tuple(
                sorted(h for h, n in counts.items() if n > 0))
    assert pairs > 0


def test_checks_enumerate_cycles_once_past_the_tag(monkeypatch, hex_prism, w4):
    calls = {"enumerate_cycles": 0, "sides": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(structure, "enumerate_cycles",
                        counted("enumerate_cycles", structure.enumerate_cycles))
    monkeypatch.setattr(structure, "cycle_sides",
                        counted("sides", structure.cycle_sides))
    monkeypatch.setattr(structure._Analysis, "separates",
                        counted("sides", structure._Analysis.separates))

    def count(fn, *args):
        calls.update(enumerate_cycles=0, sides=0)
        fn(*args)
        return calls["enumerate_cycles"], calls["sides"]

    grid = triangulated_grid(4)
    # the tag searches short paths and enumerates no cycle; members of a
    # class read cycles once, to 7 for g1 alone and to 8 when in g2
    assert count(verify_structural_lemmas, grid)[0] == 0       # neither
    assert count(verify_structural_lemmas, hex_prism)[0] == 1  # g1 only
    assert count(verify_structural_lemmas, w4)[0] == 1         # g2 only
    assert count(verify_structural_lemmas, make_cycle(10))[0] == 1  # both
    # an audit gated on a class the graph lies outside computes no sides
    for g, ruleset in ((grid, RULESET_G1), (w4, RULESET_G1),
                       (grid, RULESET_G2), (hex_prism, RULESET_G2)):
        assert count(audit, g, ruleset) == (0, 0)
