"""Transversal search, precoloring extension, and the chromatic numbers."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from dpcolor import (BudgetExceeded, CoverError, CoverGraph,
                     InconsistentPrecoloring,
                     Precoloring, bfs_tree_edges, build_from_rotation,
                     chromatic, cover_graph, diagonal_cover, dp_chromatic,
                     dp_colorable, embed_planar, enumerate_cycles,
                     extend_precoloring, find_transversal, full_cover,
                     greedy_extension_order, list_chromatic,
                     random_chooser, straighten,
                     survey_precoloring_extensions, table_chooser)
from dpcolor.cover import Cover, make_cover
import dpcolor.solver as solver
from conftest import (K4_EDGES, PRISM_EDGES, joined_pair, make_cycle,
                      relabel, triangulated_grid)
from oracles import (choosable_bounded_pool, cover_search_reference,
                     degeneracy, degeneracy_order_quadratic,
                     extension_counts_sweep, greedy_extension_order_scan,
                     has_transversal_brute, search_order_reference)


def _check_transversal(h: CoverGraph, t) -> None:
    assert len(t.assignment) == h.vertex_count
    for v, c in enumerate(t.assignment):
        assert c in h.groups[v]
    for u, v in h.graph_edges:
        assert h.matched_color(u, t.assignment[u], v) != t.assignment[v]


def test_find_transversal_c4_diagonal(c4):
    h = cover_graph(c4, diagonal_cover(c4, [(1, 2)] * 4))
    t = find_transversal(h)
    assert t is not None
    _check_transversal(h, t)


def test_find_transversal_swap_cover_none(c4):
    cov = full_cover(c4, 2, table_chooser({(0, 1): (2, 1)}))
    assert find_transversal(cover_graph(c4, cov)) is None


def test_find_transversal_no_edges():
    h = CoverGraph(((1, 2), (5,), (3, 4)), {})
    t = find_transversal(h)
    assert t is not None
    _check_transversal(h, t)


def test_find_transversal_empty_list_group():
    h = CoverGraph(((1, 2), ()), {})
    assert find_transversal(h) is None


def test_find_transversal_deterministic(c6):
    cov = full_cover(c6, 3, random_chooser(4))
    h = cover_graph(c6, cov)
    assert find_transversal(h) == find_transversal(h)


def test_find_transversal_matches_bruteforce(corpus_n6):
    rng = random.Random(13)
    for _ in range(120):
        g = rng.choice(corpus_n6)
        k = rng.randint(1, 3)
        cov = full_cover(g, k, random_chooser(rng.randrange(10 ** 6)))
        got = find_transversal(cover_graph(g, cov))
        want = has_transversal_brute(cov.lists, cov.matchings)
        assert (got is not None) == want


def test_extend_full_domain_passthrough(c4):
    cov = diagonal_cover(c4, [(1, 2)] * 4)
    pre = Precoloring.of({0: 1, 1: 2, 2: 1, 3: 2})
    t = extend_precoloring(c4, cov, pre)
    assert t.assignment == (1, 2, 1, 2)


def test_extend_k4_triangle(k4):
    cov = diagonal_cover(k4, [(1, 2, 3, 4)] * 4)
    t = extend_precoloring(k4, cov, Precoloring.of({0: 1, 1: 2, 2: 3}))
    assert t is not None and t.assignment[3] == 4


def test_extend_empty_domain_equals_find(c6):
    cov = full_cover(c6, 2, random_chooser(8))
    a = extend_precoloring(c6, cov, Precoloring.of({}))
    b = find_transversal(cover_graph(c6, cov))
    assert (a is None) == (b is None)


def test_extend_inconsistent_raises(c4):
    cov = diagonal_cover(c4, [(1, 2)] * 4)
    with pytest.raises(InconsistentPrecoloring):
        extend_precoloring(c4, cov, Precoloring.of({0: 1, 1: 1}))
    with pytest.raises(InconsistentPrecoloring):
        extend_precoloring(c4, cov, Precoloring.of({0: 9}))
    # vertices outside the graph are an input error, not a conflict
    for pre in ({-1: 2}, {7: 1}, {0: 1, 4: 2}):
        with pytest.raises(ValueError, match=r"must lie in 0\.\.3"):
            extend_precoloring(c4, cov, Precoloring.of(pre))


def test_dp_colorable_c4(c4):
    assert dp_colorable(c4, 3).all_colorable
    verdict = dp_colorable(c4, 2)
    assert not verdict.all_colorable
    bad = verdict.counterexample
    assert bad is not None
    assert not has_transversal_brute(bad.lists, bad.matchings)


def test_dp_colorable_k1(k1):
    assert dp_colorable(k1, 1).all_colorable


def test_dp_colorable_budget(octahedron):
    with pytest.raises(BudgetExceeded):
        dp_colorable(octahedron, 4, budget=1000)


def test_dp_colorable_degeneracy_bound_sweeps_one_cover(corpus_n6):
    # degeneracy 3 leaves an empty 4-core: one empty cover answers, though
    # all of G has more raw covers than the budget allows
    def beta(g):
        return g.edge_count - g.vertex_count + 1

    g = next(g for g in corpus_n6 if beta(g) >= 5 and degeneracy(
        g.vertex_count, [g.neighbors(v) for v in range(g.vertex_count)]) == 3)
    assert math.factorial(4) ** beta(g) > 24 ** 4
    verdict = dp_colorable(g, 4, budget=24 ** 4)
    assert verdict.all_colorable and verdict.covers_checked == 1


def test_dp_colorable_counts_sum_over_core_components():
    # at k = 3 the middle vertex of the joining path peels, and the two
    # copies are the components of the 3-core
    prism = embed_planar(6, PRISM_EDGES)
    pair = joined_pair(6, PRISM_EDGES)
    one = dp_colorable(prism, 3)
    assert one.all_colorable
    raw = 2 * math.factorial(3) ** 4
    verdict = dp_colorable(pair, 3, budget=raw)
    assert verdict.all_colorable
    assert verdict.covers_checked == 2 * one.covers_checked
    with pytest.raises(BudgetExceeded):
        dp_colorable(pair, 3, budget=raw - 1)
    # two K4s: the first fails, and its counterexample is lifted to all of
    # G with the identity on every edge outside that K4
    pair = joined_pair(4, K4_EDGES)
    raw = 2 * math.factorial(3) ** 3
    verdict = dp_colorable(pair, 3, budget=raw)
    assert not verdict.all_colorable and verdict.covers_checked == 1
    bad = verdict.counterexample
    assert set(bad.matchings) == set(pair.edges())
    assert not has_transversal_brute(bad.lists, bad.matchings)
    first = frozenset(range(4))
    for e, pairs in bad.matchings.items():
        if not first.issuperset(e):
            assert pairs == ((1, 1), (2, 2), (3, 3))
    with pytest.raises(BudgetExceeded):
        dp_colorable(pair, 3, budget=raw - 1)


def test_dp_colorable_sampled_mode(c4):
    v = dp_colorable(c4, 2, "sampled", samples=200, seed=3)
    assert v.mode == "sampled" and v.seed == 3
    assert not v.all_colorable  # the swap cover appears among 200 samples


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_sweeps_reject_empty_samples(c4, samples):
    with pytest.raises(ValueError, match="samples"):
        dp_colorable(c4, 2, "sampled", samples=samples)
    with pytest.raises(ValueError, match="samples"):
        survey_precoloring_extensions(c4, (0, 1, 2), 2, "sampled",
                                      samples=samples)


@pytest.mark.parametrize("mode", ["canonical", "full", "bogus"])
def test_sweeps_reject_unknown_modes(c4, mode):
    # the cover stream's own modes are not sweep modes
    with pytest.raises(ValueError, match="unknown mode"):
        dp_colorable(c4, 2, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        survey_precoloring_extensions(c4, (0, 1, 2), 2, mode)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_sweeps_reject_k_below_one(c4, k, mode):
    with pytest.raises(CoverError, match="k must be at least 1"):
        dp_colorable(c4, k, mode)
    with pytest.raises(CoverError, match="k must be at least 1"):
        survey_precoloring_extensions(c4, (0, 1, 2), k, mode)


def _alternating_wheel():
    """The wheel with 8 spokes, hub 8, and 0, 1, 2, 3 every other rim vertex."""
    rim = [0, 4, 1, 5, 2, 6, 3, 7]
    rot = [()] * 9
    for i, v in enumerate(rim):
        rot[v] = (rim[(i + 1) % 8], 8, rim[i - 1])
    rot[8] = tuple(rim)
    return build_from_rotation(9, rot)


def test_survey_keeps_a_bounded_share_of_failures():
    # the hub sees all four cycle vertices, so four colors are banned there
    # under every configuration: all 6**4 of them fail
    g = _alternating_wheel()
    survey = survey_precoloring_extensions(g, (0, 1, 2, 3), 4)
    assert survey.failure_count == survey.precolorings_checked == 1296
    assert not survey.all_extendable
    assert len(survey.failures) == solver.KEPT_FAILURES >= 64
    for fail in survey.failures:
        assert extend_precoloring(g, fail.cover, fail.precoloring) is None


def test_sampled_survey_counts_every_failure(c4):
    survey = survey_precoloring_extensions(c4, (0, 1, 2), 2, "sampled",
                                           samples=200, seed=1)
    assert survey.failure_count > len(survey.failures) == solver.KEPT_FAILURES
    for fail in survey.failures:
        assert extend_precoloring(c4, fail.cover, fail.precoloring) is None


def test_dp_chromatic_values(c5, c6, k4):
    assert dp_chromatic(c6, 5) == 3
    assert dp_chromatic(c5, 5) == 3
    assert dp_chromatic(k4, 5) == 4
    assert dp_chromatic(c5, 2) is None


def test_list_chromatic_values(c4, c6, k4, k1):
    assert list_chromatic(c4, 4) == 2
    assert list_chromatic(c6, 4) == 2
    assert list_chromatic(make_cycle(3), 4) == 3
    assert list_chromatic(k1, 4) == 1
    assert list_chromatic(k4, 5) == 4


def test_list_chromatic_skips_k1_search_with_an_edge(c4):
    # a graph with an edge is not 1-choosable; no search node is spent
    assert list_chromatic(c4, 1, budget=0) is None


def _search_only_list_chromatic(g, k_max):
    """list_chromatic as the list-assignment search alone decides it."""
    counter = [solver.DEFAULT_NODE_BUDGET]
    full = frozenset(range(g.vertex_count))
    for k in range(2 if g.edge_count else 1, k_max + 1):
        if solver._Choosability(g._adj, k, counter).choosable(full):
            return k
    return None


def test_list_chromatic_certificates_match_the_search(corpus_n6):
    # Erdős–Rubin–Taylor, Alon–Tarsi and the diagonal refutation against
    # the search they replace, on every graph of the n <= 6 corpus
    for g in corpus_n6:
        assert list_chromatic(g, 6) == _search_only_list_chromatic(g, 6), \
            g.rotations


def test_list_chromatic_falls_back_when_alon_tarsi_is_silent(
        w4, k4, monkeypatch):
    # W4 (ch = 3) reaches the search; W5 and K4 are refuted at k = 3 by
    # their lack of a proper 3-coloring
    monkeypatch.setattr(solver, "_alon_tarsi", lambda *args: False)
    w5 = embed_planar(6, [(0, i) for i in range(1, 6)]
                      + [(i, i % 5 + 1) for i in range(1, 6)])
    assert list_chromatic(w4, 5) == 3
    assert list_chromatic(w5, 5) == 4
    assert list_chromatic(k4, 5) == 4


def test_list_chromatic_alon_tarsi_spends_the_budget(octahedron):
    # the octahedron's k = 3 expansion takes 100-200 monomial steps
    with pytest.raises(BudgetExceeded, match="Alon-Tarsi"):
        list_chromatic(octahedron, 3, budget=10)
    assert list_chromatic(octahedron, 3, budget=200) == 3


def test_list_chromatic_budget_stops_a_large_expansion():
    # the 4-regular antiprism on 200 vertices: |E| = 2|V| passes the
    # degree check at k = 3, and the expansion must stop at the budget
    n = 100
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (n + i, n + j), (i, n + i), (i, n + j)]
    g = embed_planar(2 * n, edges, limit=2 * n)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="Alon-Tarsi"):
        list_chromatic(g, 3, budget=20_000)
    assert time.perf_counter() - start < 1.0


def test_list_chromatic_against_bounded_pool_oracle():
    # full pool enumeration is feasible up to four vertices at k = 2
    p3 = build_from_rotation(3, [(1,), (0, 2), (1,)])
    t3 = make_cycle(3)
    p4 = build_from_rotation(4, [(1,), (0, 2), (1, 3), (2,)])
    for g in (p3, t3):
        adj = [g.neighbors(v) for v in range(g.vertex_count)]
        for k in (1, 2):
            want = choosable_bounded_pool(adj, k)
            got = list_chromatic(g, 4)
            assert (got is not None and got <= k) == want
    for g in (p4, make_cycle(4)):
        adj = [g.neighbors(v) for v in range(g.vertex_count)]
        want = choosable_bounded_pool(adj, 2)
        assert (list_chromatic(g, 4) <= 2) == want


def test_chromatic_values(c7, k4):
    assert chromatic(c7, 5) == 3
    assert chromatic(make_cycle(8), 5) == 2
    assert chromatic(k4, 5) == 4


def test_straightening_preserves_solvability(corpus_n6):
    rng = random.Random(17)
    for _ in range(25):
        g = rng.choice(corpus_n6)
        k = rng.randint(2, 3)
        cov = full_cover(g, k, random_chooser(rng.randrange(10 ** 6)))
        out, _ = straighten(g, cov, bfs_tree_edges(g))
        a = find_transversal(cover_graph(g, cov))
        b = find_transversal(cover_graph(g, out))
        assert (a is None) == (b is None)


def test_survey_exhaustive_c4(c4):
    survey = survey_precoloring_extensions(c4, (0, 1, 2, 3), 4)
    assert survey.all_extendable
    assert survey.covers_checked > 0
    assert survey.precolorings_checked > 0


def test_survey_sampled_records_seed(c6):
    survey = survey_precoloring_extensions(c6, (0, 1, 2, 3, 4, 5), 4,
                                           "sampled", samples=20, seed=5)
    assert survey.mode == "sampled" and survey.seed == 5
    assert survey.covers_checked == 20
    assert survey.all_extendable


def test_survey_catches_failures(c4):
    # with 2 colors the swap cover has no transversal at all, so the valid
    # assignments on a 3-vertex path all fail to extend
    survey = survey_precoloring_extensions(c4, (0, 1, 2), 2)
    assert not survey.all_extendable
    for fail in survey.failures:
        t = extend_precoloring(c4, fail.cover, fail.precoloring)
        assert t is None


def test_dp_colorable_monotone(corpus_n6):
    rng = random.Random(37)
    sparse = [g for g in corpus_n6 if g.edge_count - g.vertex_count + 1 <= 2]
    for g in rng.sample(sparse, 10):
        previous = False
        for k in (1, 2, 3):
            now = dp_colorable(g, k).all_colorable
            assert not (previous and not now), "colorability must be monotone"
            previous = now


def test_greedy_extension_order(c6, octahedron):
    from dpcolor import greedy_extension_order
    # plenty of slack on a cycle
    assert greedy_extension_order(c6, (0, 1, 2), 4) is not None
    # the octahedron rim pins every remaining vertex against four constraints
    assert greedy_extension_order(octahedron, (1, 2, 3, 4), 4) is None


def test_greedy_extension_order_matches_scan_oracle(corpus_n6):
    from dpcolor import enumerate_cycles, greedy_extension_order
    for g in corpus_n6:
        for cyc in enumerate_cycles(g, 6):
            for k in (2, 3, 4):
                assert greedy_extension_order(g, cyc.vertices, k) \
                    == greedy_extension_order_scan(g, cyc.vertices, k)


def test_survey_budget_counts_residual_configurations(octahedron):
    # all of G has 24**7 raw covers at k = 4, but G - C is
    # one triangle whose vertices each see two cycle vertices
    triangle = (0, 1, 2)
    survey = survey_precoloring_extensions(octahedron, triangle, 4)
    assert not survey.all_extendable
    assert survey.precolorings_checked == 5 * 6 ** 3
    for fail in survey.failures:
        assert fail.precoloring.as_dict() == {0: 1, 1: 1, 2: 1}
        assert extend_precoloring(octahedron, fail.cover, fail.precoloring) \
            is None
    assert survey_precoloring_extensions(
        octahedron, triangle, 4, budget=survey.precolorings_checked
    ).failures == survey.failures
    with pytest.raises(BudgetExceeded):
        survey_precoloring_extensions(octahedron, triangle, 4,
                                      budget=survey.precolorings_checked - 1)
    # the colorability sweeps keep their raw (k!)**beta budget
    with pytest.raises(BudgetExceeded):
        dp_colorable(octahedron, 4, budget=24 ** 7 - 1)
    with pytest.raises(BudgetExceeded):
        dp_chromatic(octahedron, 4, budget=6 ** 7 - 1)


def test_survey_budget_counts_the_renaming_table(octahedron):
    # at k = 7 the canonical stream's renaming table has 5040**2 entries,
    # past the default budget; a residual without cycles never builds it
    with pytest.raises(BudgetExceeded):
        survey_precoloring_extensions(octahedron, (0, 1, 2), 7)
    survey = survey_precoloring_extensions(octahedron, (0, 1, 2, 3, 4), 7)
    assert survey.all_extendable
    assert (survey.covers_checked, survey.precolorings_checked) == (1, 35)


@pytest.mark.parametrize("cycle", [(0, 1, 7), (-1, 0), (0, 1, 0)])
def test_survey_rejects_bad_cycle_vertices(c4, cycle):
    # an out-of-range or repeated vertex would silently drop a real vertex
    # from the search order and change the verdict
    assert not survey_precoloring_extensions(c4, (0, 1, 2), 2).all_extendable
    with pytest.raises(ValueError):
        survey_precoloring_extensions(c4, cycle, 2)


def _smallest_valid_colors(g, cover, vertices):
    """Greedy smallest colors on ``vertices``, valid under ``cover``."""
    chosen = {}
    for v in vertices:
        chosen[v] = next(c for c in cover.lists[v] if all(
            cover.matched_color(u, chosen[u], v) != c
            for u in g.neighbors(v) if u in chosen))
    return Precoloring.of(chosen)


def _check_extension(g, cover, pre, t) -> None:
    _check_transversal(cover_graph(g, cover), t)
    assert all(t.color(v) == c for v, c in pre.items)


def test_degeneracy_order_matches_quadratic_oracle(corpus_n6):
    graphs = list(corpus_n6) + [triangulated_grid(s) for s in (2, 5, 12)]
    for g in graphs:
        adj = [set(g.neighbors(v)) for v in range(g.vertex_count)]
        assert solver._degeneracy_order(g.vertex_count, adj) \
            == degeneracy_order_quadratic(g.vertex_count, adj)


def test_extend_fixes_precolored_vertices_first(monkeypatch):
    # Precolored triangles on a 5-cover of the triangulated 10 x 10 grid:
    # with the fixed vertices searched in smallest-last position, some of
    # these calls backtracked for seconds; fixed first, each needs about
    # one node per vertex.  Every kernel run gets a budget of 2n nodes.
    g = triangulated_grid(10)
    real = solver._search
    monkeypatch.setattr(solver, "_search", lambda domains, constraints,
                        counter=None: real(domains, constraints,
                                           [2 * g.vertex_count]))
    calls = 0
    for seed in range(3):
        cover = full_cover(g, 5, random_chooser(seed))
        for f in g.faces:
            if f.id == g.outer_face_id:
                continue
            pre = _smallest_valid_colors(g, cover, f.boundary)
            _check_extension(g, cover, pre, extend_precoloring(g, cover, pre))
            calls += 1
    assert calls == 3 * 162


def test_large_grid_within_default_recursion_limit():
    # n = 10^4; the search depth is n, far beyond the recursion limit
    g = triangulated_grid(100)
    cover = full_cover(g, 5, random_chooser(11))
    h = cover_graph(g, cover)
    _check_transversal(h, find_transversal(h))
    face = next(f for f in g.faces if f.id != g.outer_face_id)
    pre = _smallest_valid_colors(g, cover, face.boundary)
    _check_extension(g, cover, pre, extend_precoloring(g, cover, pre))


def test_k1_questions_on_large_grid_within_default_recursion_limit():
    # n = 1024 and beta = 1922: the k = 1 sweep passes its budget check
    # (1!**beta = 1), so the canonical stream and the list-assignment search
    # must not recurse per edge or per vertex
    g = triangulated_grid(32)
    assert list_chromatic(g, 1) is None
    assert dp_colorable(g, 1).all_colorable is False
    assert dp_chromatic(g, 1) is None
    survey = survey_precoloring_extensions(g, (0, 1, 33), 1)
    assert survey.covers_checked == 1 and survey.all_extendable
    assert survey.precolorings_checked == 0 and survey.failure_count == 0
    assert survey.mode == "exhaustive"


def test_dp_colorable_rechecks_counterexample(c4, monkeypatch):
    # a counterexample that find_transversal solves must not be returned,
    # also when assertions are stripped (python -O)
    monkeypatch.setattr(solver, "find_transversal",
                        lambda h: solver.Transversal((1, 1, 1, 1)))
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(solver.SolverError):
            dp_colorable(c4, 2, mode, samples=200, seed=3)


def _seeded_cover(g, k, rng):
    return full_cover(g, k, random_chooser(rng.randrange(10 ** 6)))


def _partial_cover(g, k, rng):
    """A k-cover of ``g`` with about a third of its matched pairs dropped."""
    full = _seeded_cover(g, k, rng)
    return make_cover(g, full.lists, {
        e: [p for p in pairs if rng.random() < 0.7]
        for e, pairs in full.matchings.items()})


def _uneven_cover(g, k, rng):
    """Lists of 1..k colors out of 1..k+2 and random partial matchings."""
    lists = [rng.sample(range(1, k + 3), rng.randint(1, k))
             for _ in range(g.vertex_count)]
    matchings = {}
    for u, v in g.edges():
        lu, lv = rng.sample(lists[u], len(lists[u])), lists[v]
        matchings[(u, v)] = [p for p in zip(lu, lv) if rng.random() < 0.8]
    return make_cover(g, lists, matchings)


def _two_fixed(g, cover, rng):
    """Two vertices precolored from their lists, consistently."""
    u, v = rng.sample(range(g.vertex_count), 2)
    cu = rng.choice(cover.lists[u])
    ok = [c for c in cover.lists[v] if cover.matched_color(u, cu, v) != c]
    return Precoloring.of({u: cu, v: rng.choice(ok)} if ok else {u: cu})


def _assert_matches_reference(g, cover, rng):
    h = cover_graph(g, cover)
    assert find_transversal(h) == cover_search_reference(h, h.graph_edges, {})
    pre = _two_fixed(g, cover, rng)
    assert extend_precoloring(g, cover, pre) \
        == cover_search_reference(cover, g.edges(), pre.as_dict())
    # fixed vertices in smallest-last places find the same first solution,
    # only later, so the orders are compared as well
    first = sorted(pre.as_dict())
    assert solver._search_order(g.vertex_count, g.edges(), first) \
        == search_order_reference(g.vertex_count, g.edges(), first)


def test_cover_search_matches_reference(corpus_n6):
    # the cached orders and tables give the uncached search's transversals,
    # also on covers built directly with lists for tuples
    rng = random.Random(27)
    for k in range(2, 6):
        for g in corpus_n6:
            for build in (_seeded_cover, _partial_cover, _uneven_cover):
                _assert_matches_reference(g, build(g, k, rng), rng)
    for seed in range(3):
        g = relabel(triangulated_grid(10), seed)
        _assert_matches_reference(
            g, full_cover(g, 5, random_chooser(seed)), rng)
    direct = Cover([[1, 2, 3], [2, 3], [1, 3, 4]],
                   {(0, 1): [(1, 2), (2, 3)], (1, 2): [(3, 1)],
                    (0, 2): [(3, 3), (1, 4)]})
    for fixed in ({}, {2: 3}, {0: 2, 1: 3}):
        assert solver._cover_search(direct, direct.graph_edges, fixed) \
            == cover_search_reference(direct, direct.graph_edges, fixed)
    # equal n, different edges: the second graph must not reuse the first
    # one's order (star 0-1, 0-2, 0-3, then a triangle with a pendant)
    for edges in ([(0, 1), (0, 2), (0, 3)], [(0, 1), (0, 2), (0, 3), (1, 2)]):
        g = embed_planar(4, edges)
        h = cover_graph(g, full_cover(g, 3))
        assert find_transversal(h) == cover_search_reference(
            h, h.graph_edges, {})


def test_extension_counts_match_the_sweep(corpus_n6):
    # the exact count of covers, valid covers and failures equals the
    # sweep of every cover, on every graph whose full stream has at most
    # 6**4 covers: k = 2 throughout, k = 3 up to beta = 4, k = 4 up to 2
    rng = random.Random(28)
    kinds = set()
    for g in corpus_n6:
        n = g.vertex_count
        beta = g.edge_count - n + 1
        apart = [p for p in itertools.combinations(range(n), 2)
                 if not g.has_edge(*p)]
        for k in (2, 3, 4):
            if math.factorial(k) ** beta > 6 ** 4:
                continue
            sets = [c.vertices for c in enumerate_cycles(g, 4)[:2]]
            sets.append((rng.randrange(n),))
            sets += [rng.choice(apart)] if apart else []
            for vs in sets:
                # seeded colors, often equal on adjacent vertices
                pre = Precoloring.of({v: rng.randint(1, k) for v in vs})
                counts = solver._extension_counts(g, pre, k, 0, 0)
                assert counts == extension_counts_sweep(g, pre, k, 0, 0), \
                    (g.edges(), pre, k)
                # sampled mode still sweeps its seeded covers one by one
                assert solver._extension_counts(g, pre, k, 3, k) \
                    == extension_counts_sweep(g, pre, k, 3, k)
                if not counts[1]:
                    kinds.add("vacuous")
                elif counts[2]:
                    kinds.add("failures")
                elif greedy_extension_order(g, vs, k) is not None:
                    kinds.add("peeled")
                else:
                    kinds.add("searched, none failing")
    assert kinds == {"vacuous", "failures", "peeled",
                     "searched, none failing"}
