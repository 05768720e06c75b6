"""Covers, cover graphs, canonical enumeration, and straightening."""

from __future__ import annotations

import itertools
import random

import pytest

import networkx as nx

import dpcolor
from dpcolor import (BadPermutation, CoverError, NonPerfectTreeMatching,
                     NotAForest, bfs_tree_edges, build_from_rotation,
                     cover_graph, diagonal_cover, embed_planar,
                     enumerate_covers, enumerate_cycles, full_cover,
                     identity_chooser, make_cover, random_chooser, straighten,
                     table_chooser)
from dpcolor.cover import _CoverSweep
from conftest import PRISM_EDGES, make_cycle
from oracles import (bfs_tree_edges_queue, count_transversals,
                     has_cycle_union_find, has_transversal_brute,
                     list_colorable)


def test_diagonal_cover_c4_pairs(c4):
    cov = diagonal_cover(c4, [(1, 2)] * 4)
    for e in c4.edges():
        assert cov.matchings[e] == ((1, 1), (2, 2))


def test_diagonal_single_vertex(k1):
    cov = diagonal_cover(k1, [(1,)])
    assert cov.matchings == {}


def test_diagonal_k3_matches_list_coloring():
    g = make_cycle(3)
    cov = diagonal_cover(g, [(1, 2, 3)] * 3)
    adj = [g.neighbors(v) for v in range(3)]
    assert has_transversal_brute(cov.lists, cov.matchings) \
        == list_colorable(adj, cov.lists) is True


def test_diagonal_cover_validates_lists(c4):
    # a repeated color, too few lists and too many lists: make_cover's errors
    for lists in ([(1, 1), (1, 2), (1, 2), (1, 2)], [(1, 2)] * 3,
                  [(1, 2)] * 5):
        with pytest.raises(CoverError) as expected:
            make_cover(c4, lists, {})
        with pytest.raises(CoverError) as got:
            diagonal_cover(c4, lists)
        assert str(got.value) == str(expected.value)


def test_full_cover_identity_is_diagonal(c4):
    assert full_cover(c4, 3, identity_chooser) \
        == diagonal_cover(c4, [(1, 2, 3)] * 4)


def test_full_cover_swap_kills_transversals(c4):
    cov = full_cover(c4, 2, table_chooser({(0, 1): (2, 1)}))
    assert not has_transversal_brute(cov.lists, cov.matchings)


def test_full_cover_seeded_deterministic(c4):
    a = full_cover(c4, 3, random_chooser(11))
    b = full_cover(c4, 3, random_chooser(11))
    assert a == b


def test_full_cover_rejects_non_bijection(c4):
    with pytest.raises(BadPermutation):
        full_cover(c4, 2, lambda u, v, k: (1, 1))


def test_enumerate_covers_counts():
    tree = build_from_rotation(4, [(1,), (0, 2, 3), (1,), (1,)])
    assert sum(1 for _ in enumerate_covers(tree, 3)) == 1
    for n, k, want in ((4, 2, 2), (5, 2, 2), (4, 3, 6)):
        g = make_cycle(n)
        assert sum(1 for _ in enumerate_covers(g, k)) == want
    k2 = build_from_rotation(2, [(1,), (0,)])
    assert sum(1 for _ in enumerate_covers(k2, 2)) == 1


def _relabel_cover(cover, perms):
    """Apply per-vertex color permutations (dicts) to a cover."""
    lists = tuple(tuple(perms[v][c] for c in l) for v, l in enumerate(cover.lists))
    matchings = {e: tuple(sorted((perms[e[0]][a], perms[e[1]][b])
                                 for a, b in pairs))
                 for e, pairs in cover.matchings.items()}
    return lists, matchings


def _equivalent(c1, c2, k, n):
    """Brute-force relabel equivalence between covers with lists 1..k."""
    base = {e: tuple(sorted(p)) for e, p in c2.matchings.items()}
    for combo in itertools.product(itertools.permutations(range(1, k + 1)),
                                   repeat=n):
        perms = [dict(zip(range(1, k + 1), combo[v])) for v in range(n)]
        _, m1 = _relabel_cover(c1, perms)
        if m1 == base:
            return True
    return False


def test_enumerate_covers_classes_c4_k2(c4):
    reps = list(enumerate_covers(c4, 2))
    assert len(reps) == 2
    assert not _equivalent(reps[0], reps[1], 2, 4)
    # every permutation cover is equivalent to one of the representatives
    for assignment in itertools.product(
            itertools.permutations((1, 2)), repeat=4):
        matchings = {e: tuple((c, p[c - 1]) for c in (1, 2))
                     for e, p in zip(c4.edges(), assignment)}
        cov = make_cover(c4, [(1, 2)] * 4, matchings)
        assert any(_equivalent(cov, rep, 2, 4) for rep in reps)


def test_cover_graph_shapes(k1):
    c3 = make_cycle(3)
    h = cover_graph(c3, diagonal_cover(c3, [(1, 2, 3, 4)] * 3))
    assert len(h.color_vertices()) == 12
    clique = sum(1 for (x, y) in h.edges() if x[0] == y[0])
    cross = sum(1 for (x, y) in h.edges() if x[0] != y[0])
    assert clique == 3 * 6 and cross == 3 * 4
    single = cover_graph(k1, diagonal_cover(k1, [(1, 2, 3, 4)]))
    assert len(single.edges()) == 6
    assert dpcolor.CoverGraph is dpcolor.Cover
    # the cover graph keys every edge of the graph, unmatched ones empty
    g = make_cycle(5)
    partial = {(0, 1): [(1, 2)], (3, 4): [(2, 2), (1, 1)]}
    cov = make_cover(g, [(1, 2)] * 5, partial)
    h = cover_graph(g, cov)
    assert h.graph_edges == g.edges()
    for e in g.edges():
        assert h.matchings[e] == (cov.matchings[e] if e in partial else ())
    assert cover_graph(g, cov) == h


def test_cover_graph_matching_bound(corpus_n6):
    rng = random.Random(3)
    for g in rng.sample(corpus_n6, 12):
        lists = [tuple(range(1, rng.randint(1, 3) + 1))
                 for _ in range(g.vertex_count)]
        h = cover_graph(g, diagonal_cover(g, lists))
        for u, v in h.graph_edges:
            assert len(h.matching(u, v)) <= min(len(lists[u]), len(lists[v]))


def test_straighten_identity_on_diagonal(c4):
    cov = diagonal_cover(c4, [(1, 2)] * 4)
    out, cert = straighten(c4, cov, bfs_tree_edges(c4))
    assert out == cov
    assert cert.verify(out)
    assert all(cert.permutation(v) == {1: 1, 2: 2} for v in range(4))


def test_straighten_single_swap_edge():
    g = build_from_rotation(2, [(1,), (0,)])
    cov = make_cover(g, [(1, 2), (1, 2)], {(0, 1): [(1, 2), (2, 1)]})
    out, cert = straighten(g, cov, [(0, 1)])
    assert out.is_straight(0, 1)
    assert cert.verify(out)


def test_straighten_moves_swap_to_nontree_edge(c4):
    cov = full_cover(c4, 2, table_chooser({(0, 1): (2, 1)}))
    tree = [(1, 2), (2, 3), (0, 3)]
    out, cert = straighten(c4, cov, tree)
    assert cert.verify(out)
    assert all(out.is_straight(u, v) for u, v in tree)
    assert not out.is_straight(0, 1)
    assert count_transversals(cov.lists, cov.matchings) \
        == count_transversals(out.lists, out.matchings)


def test_straighten_errors(c4):
    cov = diagonal_cover(c4, [(1, 2)] * 4)
    with pytest.raises(NotAForest):
        straighten(c4, cov, c4.edges())
    partial = make_cover(c4, [(1, 2)] * 4, {(0, 1): [(1, 1)]})
    with pytest.raises(NonPerfectTreeMatching):
        straighten(c4, partial, [(0, 1)])


def _induced_components(g, vertices):
    graph = nx.Graph(g.edges())
    graph.add_nodes_from(range(g.vertex_count))
    return [sorted(c) for c in
            nx.connected_components(graph.subgraph(vertices))]


def _naive_core(g, k):
    live = set(range(g.vertex_count))
    while True:
        low = {v for v in live if len(live.intersection(g.neighbors(v))) < k}
        if not low:
            return live
        live -= low


def test_bfs_tree_edges_matches_queue_oracle_from_every_root(corpus_n6):
    for g in corpus_n6:
        for root in range(g.vertex_count):
            assert bfs_tree_edges(g, root) == bfs_tree_edges_queue(g, root)


def test_bfs_tree_edges_within_matches_queue_oracle(corpus_n6):
    checked = 0
    for g in corpus_n6:
        parts = [c for k in (2, 3)
                 for c in _induced_components(g, _naive_core(g, k))]
        for cyc in enumerate_cycles(g, 5):
            rest = set(range(g.vertex_count)) - set(cyc.vertices)
            parts += _induced_components(g, rest)
        for comp in parts:
            for root in comp:
                assert bfs_tree_edges(g, root, comp) \
                    == bfs_tree_edges_queue(g, root, comp)
                checked += 1
    assert checked > 1000


def test_straighten_rejects_exactly_the_cyclic_edge_sets(corpus_n6):
    rng = random.Random(20241018)
    outcomes = {True: 0, False: 0}
    for g in corpus_n6:
        edges = g.edges()
        for _ in range(6):
            subset = [e for e in edges if rng.random() < 0.6]
            cov = full_cover(g, 3, random_chooser(rng.randrange(10 ** 9)))
            cyclic = has_cycle_union_find(g.vertex_count, subset)
            outcomes[cyclic] += 1
            if cyclic:
                with pytest.raises(NotAForest):
                    straighten(g, cov, subset)
                continue
            out, cert = straighten(g, cov, subset)
            assert cert.verify(out)
            assert cert.straight_edges == frozenset(subset)
            assert count_transversals(cov.lists, cov.matchings) \
                == count_transversals(out.lists, out.matchings)
    assert min(outcomes.values()) >= 100


def test_straighten_error_order(c4):
    # not an edge, then a cycle, then a matching that is not a bijection
    partial = make_cover(c4, [(1, 2)] * 4, {(0, 1): [(1, 1)]})
    with pytest.raises(CoverError, match="not an edge"):
        straighten(c4, partial, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(NotAForest):
        straighten(c4, partial, c4.edges())
    with pytest.raises(NonPerfectTreeMatching):
        straighten(c4, partial, [(1, 2), (0, 1)])


def test_relabeling_preserves_transversal_counts(corpus_n6):
    rng = random.Random(5)
    graphs = [g for g in corpus_n6 if g.vertex_count <= 6]
    for _ in range(30):
        g = rng.choice(graphs)
        k = rng.randint(1, 3)
        cov = full_cover(g, k, random_chooser(rng.randrange(10 ** 6)))
        perms = [dict(zip(range(1, k + 1),
                          rng.sample(range(1, k + 1), k)))
                 for _ in range(g.vertex_count)]
        lists, matchings = _relabel_cover(cov, perms)
        assert count_transversals(cov.lists, cov.matchings) \
            == count_transversals(lists, matchings)


def test_diagonal_equivalence_random(corpus_n6):
    rng = random.Random(9)
    for _ in range(40):
        g = rng.choice(corpus_n6)
        lists = [tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 3))))
                 for _ in range(g.vertex_count)]
        cov = diagonal_cover(g, lists)
        adj = [g.neighbors(v) for v in range(g.vertex_count)]
        assert has_transversal_brute(cov.lists, cov.matchings) \
            == list_colorable(adj, lists)


def test_enumerate_covers_match_full_cover(c4):
    # each swept cover equals full_cover under the table of its permutations,
    # with the identity off the swept edges and keys in g.edges() order
    prism = embed_planar(6, PRISM_EDGES)
    for g, k, vertices in ((c4, 2, None), (c4, 3, None), (prism, 2, None),
                           (prism, 3, None), (prism, 3, (0, 1, 2))):
        sweep = _CoverSweep(g, k, vertices)
        stream = list(sweep.stream("full"))
        covers = (list(enumerate_covers(g, k)) if vertices is None
                  else [sweep.cover_from(perms) for perms in stream])
        assert len(covers) == len(stream) > 1
        for perms, cov in zip(stream, covers):
            expected = full_cover(g, k,
                                  table_chooser(dict(zip(sweep.edges, perms))))
            assert cov == expected
            assert list(cov.matchings) == list(expected.matchings)


def test_enumerate_covers_classes_k3(c4):
    # triangle: the canonical stream is jointly exhaustive at k=2 and k=3,
    # and pairwise inequivalent at k=2 (at k=3 conjugate twists coincide)
    g = make_cycle(3)
    for k in (2, 3):
        reps = list(enumerate_covers(g, k))
        n = g.vertex_count
        import math
        assert len(reps) == math.factorial(k)
        if k == 2:
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    assert not _equivalent(reps[a], reps[b], k, n)
        perms = list(itertools.permutations(range(1, k + 1)))
        for assignment in itertools.product(perms, repeat=3):
            matchings = {e: tuple((c, p[c - 1]) for c in range(1, k + 1))
                         for e, p in zip(g.edges(), assignment)}
            cov = make_cover(g, [tuple(range(1, k + 1))] * 3, matchings)
            assert any(_equivalent(cov, rep, k, n) for rep in reps)
