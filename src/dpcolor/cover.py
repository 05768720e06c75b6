"""Covers: list assignments plus one matching per edge, and the cover graph.

A cover pairs every vertex with an ordered list of colors and every edge
(u, v) with a matching between the two lists.  The induced cover graph has
one node per (vertex, color) pair, a clique inside every list, and the
matching pairs as cross edges.  A transversal of that graph (one node per
vertex, independent) is exactly a coloring under the correspondence.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .plane_graph import PlaneGraph, _components, _norm_edge, _reach


class CoverError(Exception):
    """Base class for cover construction errors."""


class BadPermutation(CoverError):
    """A permutation chooser returned something that is not a bijection."""


class NotAForest(CoverError):
    """The edge set handed to straighten contains a cycle."""


class NonPerfectTreeMatching(CoverError):
    """A tree edge's matching is not a bijection between equal-size lists."""


PairList = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Cover:
    """Lists and matchings for one graph; a cover is its own cover graph.

    ``lists[v]`` is the ordered color list of vertex v.  ``matchings`` maps
    each edge, keyed as (u, v) with u < v, to matched pairs (cu, cv); an
    absent key means the empty matching.  The cover graph's nodes are the
    pairs (v, c) with c in ``lists[v]``; ``graph_edges`` are the keyed edges.
    """

    lists: tuple[tuple[int, ...], ...]
    matchings: Mapping[tuple[int, int], PairList]

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return self.lists

    @property
    def graph_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.matchings))

    @property
    def vertex_count(self) -> int:
        return len(self.lists)

    def matching(self, u: int, v: int) -> PairList:
        """Pairs for edge uv, oriented (color-of-u, color-of-v)."""
        if u < v:
            return self.matchings.get((u, v), ())
        return tuple((b, a) for a, b in self.matchings.get((v, u), ()))

    def matched_color(self, u: int, cu: int, v: int) -> Optional[int]:
        """Color of v matched with (u, cu) on edge uv, if any."""
        for a, b in self.matching(u, v):
            if a == cu:
                return b
        return None

    def is_straight(self, u: int, v: int) -> bool:
        return all(a == b for a, b in self.matching(u, v))

    def color_vertices(self) -> list[tuple[int, int]]:
        return [(v, c) for v, colors in enumerate(self.lists) for c in colors]

    def has_edge(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        (u, cu), (v, cv) = x, y
        if u == v:
            return cu != cv and cu in self.lists[u] and cv in self.lists[u]
        return self.matched_color(u, cu, v) == cv

    def edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """All edges of the cover graph (clique edges plus matching edges)."""
        out = []
        for v, colors in enumerate(self.lists):
            for c1, c2 in itertools.combinations(colors, 2):
                out.append(((v, c1), (v, c2)))
        for (u, v), pairs in sorted(self.matchings.items()):
            for cu, cv in pairs:
                out.append(((u, cu), (v, cv)))
        return out


CoverGraph = Cover


@dataclass(frozen=True)
class StraightnessCertificate:
    """Which edges were straightened and the per-vertex renamings used.

    ``relabelings[v]`` lists (old color, new color) pairs; the renamings
    give the explicit bijection between transversals of the input and
    output covers: t'(v) = relabel_v(t(v)).
    """

    straight_edges: frozenset[tuple[int, int]]
    relabelings: tuple[tuple[tuple[int, int], ...], ...]

    def permutation(self, v: int) -> dict[int, int]:
        return dict(self.relabelings[v])

    def verify(self, cover: Cover) -> bool:
        """True when every certified edge is straight in ``cover``."""
        return all(cover.is_straight(u, v) for u, v in self.straight_edges)


# -- construction -----------------------------------------------------------


def _check_matching(u: int, v: int, pairs: Iterable[tuple[int, int]],
                    lu: Sequence[int], lv: Sequence[int]) -> PairList:
    pairs = tuple(sorted(pairs))
    seen_u: set[int] = set()
    seen_v: set[int] = set()
    for cu, cv in pairs:
        if cu not in lu or cv not in lv:
            raise CoverError(f"edge ({u},{v}): pair ({cu},{cv}) not in lists")
        if cu in seen_u or cv in seen_v:
            raise CoverError(f"edge ({u},{v}): not a matching")
        seen_u.add(cu)
        seen_v.add(cv)
    return pairs


def make_cover(g: PlaneGraph, lists: Sequence[Sequence[int]],
               matchings: Mapping[tuple[int, int], Iterable[tuple[int, int]]]
               ) -> Cover:
    """Validated cover from explicit lists and per-edge matched pairs."""
    ls = tuple(tuple(l) for l in lists)
    if len(ls) != g.vertex_count:
        raise CoverError("one list per vertex required")
    for v, l in enumerate(ls):
        if len(set(l)) != len(l):
            raise CoverError(f"list of {v} repeats a color")
    out: dict[tuple[int, int], PairList] = {}
    for (u, v), pairs in matchings.items():
        u, v = _norm_edge(u, v)
        if not g.has_edge(u, v):
            raise CoverError(f"({u},{v}) is not an edge")
        oriented = [(a, b) for a, b in pairs] if u < v else [(b, a) for a, b in pairs]
        out[(u, v)] = _check_matching(u, v, oriented, ls[u], ls[v])
    return Cover(ls, out)


def diagonal_cover(g: PlaneGraph, lists: Sequence[Sequence[int]]) -> Cover:
    """The cover whose matchings pair equal colors: plain list coloring."""
    ls = make_cover(g, lists, {}).lists
    return Cover(ls, {(u, v): tuple((c, c) for c in sorted(set(ls[u])
                                                           & set(ls[v])))
                      for u, v in g.edges()})


PermutationChooser = Callable[[int, int, int], Sequence[int]]


def identity_chooser(u: int, v: int, k: int) -> Sequence[int]:
    return tuple(range(1, k + 1))


def random_chooser(seed: int) -> PermutationChooser:
    """Seeded chooser; deterministic because edges are visited in sorted order."""
    rng = random.Random(seed)

    def choose(u: int, v: int, k: int) -> Sequence[int]:
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        return tuple(perm)

    return choose


def table_chooser(table: Mapping[tuple[int, int], Sequence[int]]
                  ) -> PermutationChooser:
    """Explicit per-edge permutations; omitted edges get the identity."""

    def choose(u: int, v: int, k: int) -> Sequence[int]:
        if (u, v) in table:
            return tuple(table[(u, v)])
        if (v, u) in table:
            perm = tuple(table[(v, u)])
            inverse = [0] * k
            for i, image in enumerate(perm):
                inverse[image - 1] = i + 1
            return tuple(inverse)
        return tuple(range(1, k + 1))

    return choose


@functools.lru_cache(maxsize=8192)  # every permutation for k <= 7
def _perm_pairs(perm: tuple[int, ...], k: int) -> PairList:
    """Matched pairs of a permutation of 1..k, checked once and shared, as
    sweeps keep many covers."""
    if sorted(perm) != list(range(1, k + 1)):
        raise BadPermutation(f"{perm} is not a bijection on 1..{k}")
    return tuple(zip(range(1, k + 1), perm))


def full_cover(g: PlaneGraph, k: int,
               chooser: PermutationChooser = identity_chooser) -> Cover:
    """Cover with every list equal to 1..k and permutation matchings.

    The chooser is called once per edge, in sorted edge order, and must
    return the permutation sending each color of u to its match at v.
    """
    if k < 1:
        raise CoverError("k must be at least 1")
    lists = tuple(tuple(range(1, k + 1)) for _ in range(g.vertex_count))
    return Cover(lists, {(u, v): _perm_pairs(tuple(chooser(u, v, k)), k)
                         for u, v in g.edges()})


def bfs_tree_edges(g: PlaneGraph, root: int = 0,
                   within: Optional[Iterable[int]] = None
                   ) -> list[tuple[int, int]]:
    """Edges of the breadth-first spanning tree from ``root`` (sorted nbrs),
    of the subgraph induced by ``within`` when given (it must hold root)."""
    inside = frozenset(range(g.vertex_count) if within is None else within)
    return [_norm_edge(u, v)
            for u, v in _discovery_edges(g._adj, _reach(g._adj, root, inside))]


def _discovery_edges(adj: Sequence[frozenset[int]], order: Sequence[int]
                     ) -> Iterator[tuple[int, int]]:
    """(parent, vertex) per vertex after the first of a breadth-first
    ``order``; parents never move back along it, so one pointer finds them."""
    p = 0
    for v in order[1:]:
        while v not in adj[order[p]]:
            p += 1
        yield order[p], v


def _conjugate(p: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """sigma o p o sigma^{-1}, all permutations of 1..k as image tuples."""
    k = len(p)
    q = [0] * k
    for c in range(1, k + 1):
        q[sigma[c - 1] - 1] = sigma[p[c - 1] - 1]
    return tuple(q)


class _CoverSweep:
    """The stream of covers with lists 1..k and permutation matchings.

    Every item holds one permutation of 1..k per edge of ``g.edges()``, as
    an image tuple (color c of the smaller endpoint is matched with
    ``perm[c - 1]``).  Modes:

    * ``"full"``: identity on the BFS spanning tree and every permutation
      on each non-tree edge, (k!)**(|E|-|V|+1) covers.
    * ``"canonical"``: the full stream less covers equivalent under renaming
      all lists by one common permutation (``canonical_tuples`` keeps one
      representative per orbit).  Such a renaming maps transversals and
      valid precolorings bijectively, so colorability sweeps may quantify
      over representatives.
    * ``"sampled"``: ``samples`` seeded random covers, exactly those of
      ``full_cover(g, k, random_chooser(rng.randrange(2 ** 32)))`` with
      ``rng = random.Random(seed)``.

    Given ``vertices``, a connected vertex set, the stream covers the
    subgraph they induce instead: ``edges`` are its edges and the tree is
    its BFS tree from the least vertex.  ``cover_from`` lifts each such
    cover to all of g, with the identity on every edge outside ``edges``.
    """

    def __init__(self, g: PlaneGraph, k: int,
                 vertices: Optional[Iterable[int]] = None):
        if k < 1:
            raise CoverError("k must be at least 1")
        self.g = g
        self.k = k
        keep = frozenset(range(g.vertex_count) if vertices is None
                         else vertices)
        self.vertices = keep
        self.edges = tuple(e for e in g.edges() if keep.issuperset(e))
        tree = set(bfs_tree_edges(g, min(keep), keep)) if keep else set()
        self.non_tree = [i for i, e in enumerate(self.edges) if e not in tree]

    @functools.cached_property
    def perms(self) -> list[tuple[int, ...]]:
        return list(itertools.permutations(range(1, self.k + 1)))

    @property
    def total_covers(self) -> int:
        """Size of the full stream, which bounds the canonical one."""
        return math.factorial(self.k) ** len(self.non_tree)

    @functools.cached_property
    def conj(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]],
                           tuple[int, ...]]:
        """``conj[(s, p)]``: p conjugated by the renaming s; (k!)**2 entries."""
        return {(s, p): _conjugate(p, s) for s in self.perms for p in self.perms}

    @property
    def canonical_covers(self) -> int:
        """Size of the canonical stream: the number of common-renaming
        orbits, by Burnside's lemma the mean over renamings s of the
        tuples s fixes, |centralizer(s)| ** (non-tree edges)."""
        m = len(self.non_tree)
        if m == 0:
            return 1
        conj = self.conj
        return sum(sum(conj[(s, p)] == p for p in self.perms) ** m
                   for s in self.perms) // len(self.perms)

    def canonical_tuples(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """One non-tree permutation tuple per common-renaming orbit."""
        m = len(self.non_tree)
        if m == 0:
            yield ()
            return
        conj = self.conj
        sigmas = [s for s in self.perms
                  if any(conj[(s, p)] != p for p in self.perms)]
        prefix: list[tuple[int, ...]] = []
        # per non-tree edge: the permutations left, the renamings still tied
        frames = [(iter(self.perms), sigmas)]
        while frames:
            p = next(frames[-1][0], None)
            if p is None:
                frames.pop()
                if prefix:
                    prefix.pop()
                continue
            ties = []
            for s in frames[-1][1]:
                q = conj[(s, p)]
                if q < p:
                    break  # a renaming gives a smaller tuple
                if q == p:
                    ties.append(s)
            else:
                if len(frames) == m:
                    yield (*prefix, p)
                else:
                    prefix.append(p)
                    frames.append((iter(self.perms), ties))

    def all_tuples(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Every non-tree permutation tuple."""
        return itertools.product(self.perms, repeat=len(self.non_tree))

    def stream(self, mode: str, samples: int = 0, seed: int = 0
               ) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Per-edge permutation tuples of the given mode.  ValueError
        reports an unknown mode, or ``samples`` < 1, at the call."""
        k = self.k
        if mode == "sampled":
            if samples < 1:
                raise ValueError(f"samples must be at least 1, got {samples}")
            rng = random.Random(seed)
            return (tuple(choose(u, v, k) for u, v in self.edges)
                    for choose in (random_chooser(rng.randrange(2 ** 32))
                                   for _ in range(samples)))
        if mode == "canonical":
            tuples = self.canonical_tuples()
        elif mode == "full":
            tuples = self.all_tuples()
        else:
            raise ValueError(f"unknown mode {mode!r}")
        perms = [tuple(range(1, k + 1))] * len(self.edges)

        def lift(t: tuple[tuple[int, ...], ...]) -> tuple:
            for i, p in zip(self.non_tree, t):
                perms[i] = p
            return tuple(perms)
        return map(lift, tuples)

    def cover_from(self, perms: Sequence[tuple[int, ...]]) -> Cover:
        """The cover of all of g with ``perms`` on ``edges`` and the
        identity on every other edge; keys in ``g.edges()`` order."""
        ident = tuple(range(1, self.k + 1))
        pairs = dict.fromkeys(self.g.edges(), _perm_pairs(ident, self.k))
        pairs.update(zip(self.edges,
                         map(_perm_pairs, perms, itertools.repeat(self.k))))
        return Cover((ident,) * self.g.vertex_count, pairs)


def enumerate_covers(g: PlaneGraph, k: int) -> Iterator[Cover]:
    """Full covers: identity on a spanning tree, all else enumerated.

    Renaming colors vertex by vertex never changes whether a transversal
    exists, and any cover can be renamed so that a fixed spanning tree is
    straight.  Enumerating permutations on the non-tree edges only is
    therefore exhaustive for colorability questions, giving
    (k!)**(|E|-|V|+1) covers for a connected graph.  Renaming every list
    by one common permutation can still identify two of these (conjugate
    twists), so for k >= 3 the stream may hold several members of one
    relabeling class; downstream sweeps exploit exactly that symmetry.
    """
    sweep = _CoverSweep(g, k)
    return map(sweep.cover_from, sweep.stream("full"))


def cover_graph(g: PlaneGraph, cover: Cover) -> Cover:
    """``cover`` with every edge of ``g`` keyed, unmatched ones empty."""
    if len(cover.lists) != g.vertex_count:
        raise CoverError("cover does not fit graph")
    return Cover(cover.lists, {e: cover.matchings.get(e, ()) for e in g.edges()})


def straighten(g: PlaneGraph, cover: Cover,
               tree_edge_set: Iterable[tuple[int, int]]
               ) -> tuple[Cover, StraightnessCertificate]:
    """Rename colors vertex by vertex until every given edge is straight.

    The edges must form a forest and carry bijective matchings between
    equal-size lists.  Only per-vertex renamings are applied, so the
    returned certificate's relabelings place transversals of the old and
    new covers in bijection.
    """
    edges = sorted({_norm_edge(u, v) for u, v in tree_edge_set})
    for u, v in edges:
        if not g.has_edge(u, v):
            raise CoverError(f"({u},{v}) is not an edge")
    n = g.vertex_count
    forest: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        forest[u].add(v)
        forest[v].add(u)
    everything = frozenset(range(n))
    comps = _components(forest, everything)
    # n vertices in c components span n - c edges, or more with a cycle
    if len(edges) != n - len(comps):
        raise NotAForest(f"the {len(edges)} edges close a cycle")
    relabel: list[dict[int, int]] = [{c: c for c in cl} for cl in cover.lists]
    for comp in comps:
        for u, v in _discovery_edges(forest,
                                     _reach(forest, min(comp), everything)):
            pairs = cover.matching(u, v)
            lu, lv = cover.lists[u], cover.lists[v]
            if not (len(pairs) == len(lu) == len(lv)):
                raise NonPerfectTreeMatching(
                    f"edge ({u},{v}): matching is not a bijection")
            inverse = {cv: cu for cu, cv in pairs}
            relabel[v] = {cv: relabel[u][inverse[cv]] for cv in lv}

    new_lists = tuple(tuple(relabel[v][c] for c in cover.lists[v])
                      for v in range(n))
    new_matchings = {(u, v): tuple(sorted((relabel[u][cu], relabel[v][cv])
                                          for cu, cv in pairs))
                     for (u, v), pairs in cover.matchings.items()}
    new_cover = Cover(new_lists, new_matchings)
    cert = StraightnessCertificate(
        frozenset(edges),
        tuple(tuple(sorted(relabel[v].items())) for v in range(n)))
    return new_cover, cert
