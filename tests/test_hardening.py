"""Deeper cross-checks: differential sweeps, literature values, fuzzing."""

from __future__ import annotations

import ast
import itertools
import math
import random
import re
from pathlib import Path

import dpcolor

from dpcolor import (RULESET_G1, audit, build_from_rotation, class_membership,
                     dp_colorable, embed_planar, enumerate_covers,
                     enumerate_cycles, extend_precoloring, list_chromatic,
                     Precoloring, InconsistentPrecoloring,
                     survey_precoloring_extensions)
from dpcolor.cover import _CoverSweep, _conjugate
from dpcolor.solver import (_extension_sweep, _PermTables, _search,
                            _search_order)
from conftest import K4_EDGES, PRISM_EDGES, joined_pair, make_cycle
from oracles import has_transversal_brute


def _naive_survey_ok(g, cycle, k):
    """Every valid precoloring of ``cycle`` extends, the slow direct way."""
    cyc = list(cycle)
    for cover in enumerate_covers(g, k):
        for combo in itertools.product(range(1, k + 1), repeat=len(cyc)):
            pre = Precoloring.of(dict(zip(cyc, combo)))
            try:
                t = extend_precoloring(g, cover, pre)
            except InconsistentPrecoloring:
                continue  # not valid under this cover
            if t is None:
                return False
    return True


def test_survey_matches_naive_sweep(corpus_n6):
    rng = random.Random(20240807)
    small = [g for g in corpus_n6
             if g.vertex_count <= 5 and g.edge_count - g.vertex_count + 1 <= 2]
    cases = 0
    while cases < 12:
        g = rng.choice(small)
        k = rng.randint(2, 3)
        from dpcolor import enumerate_cycles
        cycles = enumerate_cycles(g, 7)
        if not cycles:
            continue
        cyc = rng.choice(cycles).vertices
        fast = survey_precoloring_extensions(g, cyc, k)
        slow = _naive_survey_ok(g, cyc, k)
        assert fast.all_extendable == slow, (g.rotations, cyc, k)
        cases += 1


def _per_cover_survey_ok(g, cyc, k):
    """Every valid precoloring of ``cyc`` extends under every canonical
    cover of g: the per-cover sweep that sampled surveys run."""
    stream = _CoverSweep(g, k).stream("canonical")
    return all(extends for _, results in _extension_sweep(
        g, k, cyc, [(1 << k) - 1] * len(cyc), stream)
        for _, extends in results)


def _assert_failures_recheck(g, survey):
    for fail in survey.failures:
        # valid under its cover (no InconsistentPrecoloring), yet stuck
        assert extend_precoloring(g, fail.cover, fail.precoloring) is None


def test_residual_survey_matches_per_cover_sweep(corpus_n6):
    # the exhaustive survey sweeps G - C only; it must agree with one
    # extension search per valid precoloring under every cover of G, on
    # cycles and on arbitrary vertex tuples (independent ones included)
    cases = 0
    for g in (g for g in corpus_n6 if g.vertex_count <= 5):
        beta = g.edge_count - g.vertex_count + 1
        tuples = [(c.vertices, (2, 3, 4)) for c in enumerate_cycles(g, 5)]
        tuples += [(t, (1, 2, 3)) for size in (1, 2, 3) for t in
                   itertools.combinations(range(g.vertex_count), size)]
        for cyc, ks in tuples:
            for k in ks:
                if math.factorial(k) ** beta > 6 ** 4:
                    continue
                survey = survey_precoloring_extensions(g, cyc, k)
                slow = _per_cover_survey_ok(g, cyc, k)
                assert survey.all_extendable == slow, (g.rotations, cyc, k)
                _assert_failures_recheck(g, survey)
                cases += 1
    assert cases > 1000


def test_residual_survey_disconnected_residual(octahedron):
    # the equator leaves the two poles as separate components of G - C
    equator = (0, 1, 5, 3)
    poles = [_CoverSweep(octahedron, 3, [v]) for v in (2, 4)]
    fast = survey_precoloring_extensions(octahedron, equator, 2)
    assert fast.all_extendable == _naive_survey_ok(octahedron, equator, 2)
    fast = survey_precoloring_extensions(octahedron, equator, 3)
    assert fast.all_extendable == _per_cover_survey_ok(octahedron, equator, 3)
    assert not fast.all_extendable
    assert fast.covers_checked == sum(p.canonical_covers for p in poles) == 2
    _assert_failures_recheck(octahedron, fast)


def _whole_graph_colorable(g, k):
    """Every canonical cover of all of g has a transversal: one kernel
    search per cover of ``_CoverSweep(g, k).stream("canonical")``."""
    sweep = _CoverSweep(g, k)
    tables = _PermTables(_search_order(g.vertex_count, sweep.edges),
                         sweep.edges)
    domains = [(1 << k) - 1] * g.vertex_count
    for perms in sweep.stream("canonical"):
        tables.load(perms)
        if next(_search(domains, tables.constraints), None) is None:
            return False
    return True


def test_core_sweep_matches_whole_graph_sweep(corpus_n6):
    # exhaustive dp_colorable sweeps only the components of the k-core; it
    # must agree with the sweep over every canonical cover of all of G.
    # Two K4s joined by a path of length 2 leave a 3-core of two
    # components, and so do a prism and a K4, where only the second one
    # fails; two triangles joined so leave an empty 3-core.
    cases = [(g, k) for g in corpus_n6 for k in (1, 2, 3, 4)]
    cases += [(joined_pair(4, K4_EDGES), 3),
              (joined_pair(6, PRISM_EDGES, 4, K4_EDGES), 3),
              (joined_pair(3, [(0, 1), (1, 2), (0, 2)]), 3)]
    swept = 0
    for g, k in cases:
        if math.factorial(k) ** (g.edge_count - g.vertex_count + 1) > 24 ** 4:
            continue
        verdict = dp_colorable(g, k)
        assert verdict.all_colorable == _whole_graph_colorable(g, k), \
            (g.rotations, k)
        bad = verdict.counterexample
        if bad is not None:
            assert not has_transversal_brute(bad.lists, bad.matchings)
        swept += 1
    assert swept == 490


def test_canonical_covers_counts_the_canonical_stream(octahedron):
    # Burnside's count equals the stream's length, on G and on the
    # subgraphs that residual surveys sweep (the empty one included)
    for k in (1, 2, 3, 4):
        for vertices in (None, (), (2,), (0, 1, 2), (0, 1, 2, 3),
                         (1, 2, 3, 4, 5)):
            sweep = _CoverSweep(octahedron, k, vertices)
            if sweep.total_covers > 24 ** 2:
                continue
            assert sweep.canonical_covers == \
                sum(1 for _ in sweep.canonical_tuples())


def test_canonical_tuples_cover_all_orbits(c4):
    # expanding each representative by every conjugation recreates the
    # full tuple space exactly, so sweeps over representatives are complete
    k3 = make_cycle(3)
    for g, k in ((c4, 2), (c4, 3), (k3, 2)):
        sweep = _CoverSweep(g, k)
        perms = sweep.perms
        reps = list(sweep.canonical_tuples())
        expanded = set()
        for rep in reps:
            for sigma in perms:
                expanded.add(tuple(_conjugate(p, sigma) for p in rep))
        assert expanded == set(sweep.all_tuples())
        for rep in reps:
            assert all(tuple(_conjugate(p, s) for p in rep) >= rep
                       for s in perms)


def test_choosability_literature_values():
    # complete bipartite checks: K(2,3) is 2-choosable, K(2,4) is not
    k23 = embed_planar(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    k24 = embed_planar(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
    assert list_chromatic(k23, 4) == 2
    assert list_chromatic(k24, 4) == 3


def test_g1_outer_compensation_fires_on_fixture():
    # ring of 22 with an interior diamond: every hypothesis of the g1
    # outer-compensation bound is satisfied, so the audit must check it
    ring = 22
    a, b, x, y = 22, 23, 24, 25
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    edges += [(a, x), (a, y), (b, x), (b, y), (x, y)]
    edges += [(a, 0), (a, 1), (x, 5), (b, 9), (b, 10), (y, 14)]
    g0 = embed_planar(26, edges, limit=26)
    g = build_from_rotation(26, g0.rotations,
                            outer_face_hint=list(range(ring)))
    assert class_membership(g).in_g1
    rep = audit(g, RULESET_G1)
    acct = rep.accounting
    assert (acct.s, acct.s_prime, acct.f3, acct.t1, acct.t2) == (6, 2, 2, 2, 0)
    assert acct.k == 4
    assert acct.g1_identity_applicable and acct.g1_identity_holds
    comp = next(c for c in rep.bound_checks if c.id == "g1-outer-compensation")
    assert comp.applicable and comp.holds
    assert acct.b >= 6  # (d(D) - k) / 3 with d(D) = 22, k = 4
    assert not rep.negative_elements


def test_identification_matches_abstract_merge():
    # the rotation splice must produce exactly the abstract identification
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    ring2 = list(range(5, 13))
    for i, v in enumerate((1, 2, 3, 4)):
        edges += [(v, ring2[2 * i]), (v, ring2[2 * i + 1])]
    edges += [(ring2[i], ring2[(i + 1) % 8]) for i in range(8)]
    g = embed_planar(13, edges, limit=13)
    from dpcolor import identify_and_reduce
    rot = g.neighbors(0)
    kept = (rot[0], rot[2])
    removed = {0, rot[1], rot[3]}
    reduced = identify_and_reduce(g, 0, kept, mode=None)

    survivors = [v for v in range(13) if v not in removed and v != max(kept)]
    new_id = {v: i for i, v in enumerate(survivors)}

    def renamed(v):
        return new_id[min(kept)] if v == max(kept) else new_id[v]

    want = set()
    for u, v in g.edges():
        if u in removed or v in removed:
            continue
        a, b = renamed(u), renamed(v)
        if a != b:
            want.add((min(a, b), max(a, b)))
    assert set(reduced.edges()) == want


def test_graph6_large_header_against_networkx():
    import networkx as nx
    # a 70-vertex path forces the multi-byte size encoding
    path = nx.path_graph(70)
    s = nx.to_graph6_bytes(path, header=False).decode().strip()
    from dpcolor import parse_graph6
    doc = parse_graph6(s)
    assert doc.vertex_count == 70
    assert {tuple(sorted(e)) for e in doc.edges} \
        == {tuple(sorted(e)) for e in path.edges()}


def test_rotation_shuffle_fuzz(corpus_n6):
    # shuffling rotations keeps adjacency symmetric, so the builder must
    # either accept with clean invariants or reject as a non-sphere closure
    from dpcolor import NonPlanarClosure
    rng = random.Random(20240808)
    for _ in range(80):
        g = rng.choice(corpus_n6)
        rots = [list(r) for r in g.rotations]
        for r in rots:
            rng.shuffle(r)
        try:
            h = build_from_rotation(g.vertex_count, rots)
        except NonPlanarClosure:
            continue
        assert sum(f.length for f in h.faces) == 2 * h.edge_count
        assert h.vertex_count - h.edge_count + len(h.faces) == 2


def test_swap_cover_verdict_agrees_with_bruteforce(c6):
    # one more cross-check of the sweep machinery against raw enumeration
    for k in (1, 2):
        sweep_bad = []
        for cover in enumerate_covers(c6, k):
            if not has_transversal_brute(cover.lists, cover.matchings):
                sweep_bad.append(cover)
        from dpcolor import dp_colorable
        verdict = dp_colorable(c6, k)
        assert verdict.all_colorable == (not sweep_bad)


def test_choosability_theta_graphs():
    # two hubs joined by three paths: lengths (2,2,even) are 2-choosable,
    # everything else needs 3; the other shapes probe the Erdős–Rubin–Taylor
    # test on 2-cores with m = n + 1 that are not theta graphs, and on a
    # 2-core that is an even cycle
    def theta(*lengths):
        edges = []
        nxt = 2
        for length in lengths:
            prev = 0
            for _ in range(length - 1):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, 1))
        return embed_planar(nxt, edges)

    assert list_chromatic(theta(2, 2, 2), 4) == 2
    assert list_chromatic(theta(2, 2, 4), 4) == 2
    assert list_chromatic(theta(2, 2, 3), 4) == 3
    assert list_chromatic(theta(3, 3, 3), 4) == 3
    assert list_chromatic(theta(2, 3, 4), 4) == 3
    assert list_chromatic(theta(1, 2, 2), 4) == 3  # K4 - e

    triangle, triangle2 = [(0, 1), (1, 2), (2, 0)], [(3, 4), (4, 5), (5, 3)]
    dumbbell = embed_planar(6, triangle + triangle2 + [(2, 3)])
    bowtie = embed_planar(5, triangle + [(2, 3), (3, 4), (4, 2)])
    # both hubs' walks come back to their own hub
    square, square2 = [(0, 1), (1, 2), (2, 3), (3, 0)], \
        [(5, 6), (6, 7), (7, 8), (8, 5)]
    squares = embed_planar(9, square + square2 + [(3, 4), (4, 5)])
    pendant = embed_planar(6, square + [(3, 4), (4, 5)])
    assert list_chromatic(dumbbell, 4) == 3
    assert list_chromatic(bowtie, 4) == 3
    assert list_chromatic(squares, 4) == 3
    assert list_chromatic(pendant, 4) == 2


def test_k24_classic_bad_assignment():
    # the well-known witness that two hubs against four rim vertices are
    # not 2-choosable: rim lists enumerate the hub-color combinations
    from oracles import list_colorable
    adj = [(2, 3, 4, 5), (2, 3, 4, 5), (0, 1), (0, 1), (0, 1), (0, 1)]
    lists = [(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert not list_colorable(adj, lists)


def test_survey_matches_naive_on_chorded_cycle(k4):
    # the chosen cycle has chords here, so validity must respect them
    for k in (2, 3):
        fast = survey_precoloring_extensions(k4, (0, 1, 2, 3), k)
        slow = _naive_survey_ok(k4, (0, 1, 2, 3), k)
        assert fast.all_extendable == slow
    # and a triangle inside the clique, leaving one vertex to extend
    fast = survey_precoloring_extensions(k4, (0, 1, 2), 4)
    assert fast.all_extendable == _naive_survey_ok(k4, (0, 1, 2), 4)


def test_no_assert_statements_in_package():
    # python -O strips assert, so none may guard a runtime check
    root = Path(dpcolor.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_package_function_has_a_caller():
    # a module-level function or class that the package does not export
    # must be named somewhere in the package besides its own definition
    root = Path(dpcolor.__file__).parent
    init = ast.parse((root / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    texts = {path: path.read_text() for path in sorted(root.rglob("*.py"))}
    text = "\n".join(texts.values())
    uncalled = [f"{path.stem}.{node.name}"
                for path, src in texts.items()
                for node in ast.parse(src).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and node.name not in exported
                and len(re.findall(rf"\b{node.name}\b", text)) < 2]
    assert not uncalled, uncalled


def test_no_recursion_in_package():
    # the searches, streams and cycle enumeration run on explicit stacks, so
    # their depth is free of the recursion limit; no function may call itself
    root = Path(dpcolor.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        name = str(path.relative_to(root))
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                        isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"):
                    found.add(f"{name}:{fn.name}")
    assert not found, sorted(found)
