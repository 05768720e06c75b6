"""Search: transversals of cover graphs, precoloring extension, and the
three chromatic numbers at desk scale.

Everything here is exact, and every question runs on one search kernel,
:func:`_search`: an explicit-stack backtracking loop over positions in a
fixed order, with color bitmasks and per-edge translation tables.  The
exhaustive modes quantify over the canonical stream of
:class:`dpcolor.cover._CoverSweep`, which skips covers equivalent under
renaming all lists by one common permutation; that changes no verdict,
since such a renaming maps transversals to transversals bijectively.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .cover import (Cover, CoverGraph, _CoverSweep, cover_graph, full_cover,
                    table_chooser)
from .plane_graph import PlaneGraph, _components, _reach

DEFAULT_COVER_BUDGET = 10_000_000
DEFAULT_NODE_BUDGET = 20_000_000
KEPT_FAILURES = 64  # concrete failures an extension survey keeps


class SolverError(Exception):
    pass


class BudgetExceeded(SolverError):
    """An exhaustive request is larger than the configured budget."""


class InconsistentPrecoloring(SolverError):
    """Two precolored endpoints of an edge conflict through the matching."""


@dataclass(frozen=True)
class Transversal:
    """One chosen color per vertex, independent in the cover graph."""

    assignment: tuple[int, ...]

    def color(self, v: int) -> int:
        return self.assignment[v]


@dataclass(frozen=True)
class Precoloring:
    """A partial assignment, typically on the vertices of a short cycle."""

    items: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, assignment: Mapping[int, int]) -> "Precoloring":
        return cls(tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)


@dataclass(frozen=True)
class ColorabilityVerdict:
    """Outcome of a colorability sweep over a cover stream.

    In sampled mode ``covers_checked`` counts the seeded covers of G
    swept.  In exhaustive mode it sums the canonical covers swept over the
    components of the k-core (vertices of degree < k peeled repeatedly);
    an empty core counts as one empty cover, so it is at least 1.  The
    call's ``budget`` bounded the raw covers of those same components.
    """

    mode: str  # "exhaustive" | "sampled"
    all_colorable: bool
    counterexample: Optional[Cover]
    covers_checked: int
    samples: Optional[int] = None
    seed: Optional[int] = None


# -- the search kernel --------------------------------------------------------


def _search(domains: Sequence[int],
            constraints: Sequence[Sequence[Sequence]],
            counter: Optional[list[int]] = None) -> Iterator[tuple[int, ...]]:
    """Every choice of one color per position, in ascending color order.

    ``domains[i]`` is the bitmask of the colors open at position i (a
    single bit fixes it).  ``constraints[i]`` holds pairs (j, table) with
    j < i: when position j takes color c, ``table[c]`` is the bitmask of
    colors it bans at position i, 0 when c is unmatched.  Only the first
    ``len(domains)`` positions are searched, so a prefix of ``constraints``
    serves as well.  Solutions are tuples of color indices (bit numbers),
    yielded lexicographically.  ``counter``, a one-element list, loses one
    per color tried; BudgetExceeded is raised when it drops below zero.
    An explicit stack keeps the depth free of the recursion limit.
    """
    n = len(domains)
    if n == 0:
        yield ()
        return
    chosen = [0] * n
    avail = [0] * n
    avail[0] = domains[0]
    i = 0
    while i >= 0:
        a = avail[i]
        if not a:
            i -= 1
            continue
        low = a & -a
        avail[i] = a ^ low
        chosen[i] = low.bit_length() - 1
        if counter is not None:
            counter[0] -= 1
            if counter[0] < 0:
                raise BudgetExceeded("search node budget exhausted")
        if i + 1 == n:
            yield tuple(chosen)
            continue
        i += 1
        banned = 0
        for j, table in constraints[i]:
            banned |= table[chosen[j]]
        avail[i] = domains[i] & ~banned


def _degeneracy_order(n: int, adj: Sequence[set[int]]) -> list[int]:
    """Smallest-last order: repeatedly peel the vertex of least (degree, index)."""
    degree = [len(adj[v]) for v in range(n)]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    removed = [False] * n
    peeled: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue  # stale entry: v was peeled or its degree dropped
        removed[v] = True
        peeled.append(v)
        for u in adj[v]:
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    peeled.reverse()
    return peeled


def _peel(adj: Sequence[frozenset[int]], live: Iterable[int], k: int,
          keep: Iterable[int] = ()) -> tuple[list[int], frozenset[int]]:
    """Repeatedly remove the smallest vertex outside ``keep`` with fewer
    than k live neighbors; the removed vertices in order, and the rest.

    A vertex once removable stays so, so the heap holds exactly the
    removable vertices and every step takes the smallest of them.
    """
    live = set(live)
    keep = set(keep)
    degree = {v: len(adj[v] & live) for v in live}
    heap = [v for v, d in degree.items() if d < k and v not in keep]
    heapq.heapify(heap)
    peeled: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        live.discard(v)
        peeled.append(v)
        for u in adj[v]:
            if u in live:
                degree[u] -= 1
                if degree[u] == k - 1 and u not in keep:
                    heapq.heappush(heap, u)
    return peeled, frozenset(live)


def _search_order(n: int, edges: Iterable[tuple[int, int]],
                  first: Sequence[int] = ()) -> list[int]:
    """``first`` as given, then every other vertex in smallest-last order."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    rest = set(range(n)) - set(first)
    return list(first) + [v for v in _degeneracy_order(n, adj) if v in rest]


def _cover_search(lists: Sequence[Sequence[int]], matching_of,
                  edges: Sequence[tuple[int, int]],
                  fixed: Mapping[int, int]) -> Optional[Transversal]:
    """First transversal extending ``fixed``; fixed vertices come first."""
    n = len(lists)
    order = _search_order(n, edges, sorted(fixed))
    pos = {v: i for i, v in enumerate(order)}
    colors = [sorted(lists[v]) for v in order]
    index_of = [{c: i for i, c in enumerate(cs)} for cs in colors]
    domains = [1 << index_of[i][fixed[v]] if v in fixed
               else (1 << len(colors[i])) - 1 for i, v in enumerate(order)]
    constraints: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for u, v in edges:
        if pos[u] > pos[v]:
            u, v = v, u
        a, b = pos[u], pos[v]
        table = [0] * len(colors[a])
        for cu, cv in matching_of(u, v):
            if cu in index_of[a] and cv in index_of[b]:
                table[index_of[a][cu]] = 1 << index_of[b][cv]
        constraints[b].append((a, table))
    sol = next(_search(domains, constraints), None)
    if sol is None:
        return None
    out = [0] * n
    for i, v in enumerate(order):
        out[v] = colors[i][sol[i]]
    return Transversal(tuple(out))


def find_transversal(h: CoverGraph) -> Optional[Transversal]:
    """A transversal of the cover graph, or None when none exists.

    Deterministic: an iterative backtracking search tries vertices in
    smallest-last order and colors in ascending order, and returns the
    first transversal it meets.  Depth is not bounded by the recursion
    limit.
    """
    if any(len(cs) == 0 for cs in h.groups):
        return None
    return _cover_search(h.groups, h.matching, h.graph_edges, {})


def extend_precoloring(g: PlaneGraph, cover: Cover,
                       pre: Precoloring) -> Optional[Transversal]:
    """Extend a partial assignment to a full transversal, if possible.

    The search fixes the precolored vertices first, in ascending vertex
    order, and then runs as :func:`find_transversal` over the remaining
    vertices in smallest-last order; a color of an uncolored vertex is
    pruned exactly when it is matched to a chosen neighbor color.  Raises
    InconsistentPrecoloring when the given partial assignment already
    conflicts (wrong list, or a matched pair chosen on an edge).
    """
    fixed = pre.as_dict()
    for v, c in fixed.items():
        if c not in cover.lists[v]:
            raise InconsistentPrecoloring(f"color {c} not in list of {v}")
    for u, v in g.edges():
        if u in fixed and v in fixed:
            if cover.matched_color(u, fixed[u], v) == fixed[v]:
                raise InconsistentPrecoloring(
                    f"edge ({u},{v}): precolored pair is matched")
    return _cover_search(cover.lists, cover.matching, g.edges(), fixed)


@functools.lru_cache(maxsize=8192)  # every permutation for k <= 7
def _perm_tables(p: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Kernel tables of permutation ``p`` on an edge (u, v), u < v.

    The first maps a color index of u to the bit it bans at v, the second
    a color index of v to the bit it bans at u.
    """
    fwd = [0] * len(p)
    inv = [0] * len(p)
    for i, c in enumerate(p):
        fwd[i] = 1 << (c - 1)
        inv[c - 1] = 1 << i
    return tuple(fwd), tuple(inv)


class _PermTables:
    """Kernel constraints for one position order over permutation covers.

    Built once per graph; ``load`` swaps in the tables of one cover from a
    :class:`_CoverSweep` stream (one permutation per edge of ``edges``).
    """

    def __init__(self, order: Sequence[int], edges: Sequence[tuple[int, int]]):
        pos = {v: i for i, v in enumerate(order)}
        self.constraints: list[list[list]] = [[] for _ in order]
        self._slots: list[tuple[list, int, int]] = []
        for e, (u, v) in enumerate(edges):
            a, b = pos[u], pos[v]
            slot = [min(a, b), ()]
            self.constraints[max(a, b)].append(slot)
            self._slots.append((slot, e, 0 if a < b else 1))

    def load(self, perms: Sequence[tuple[int, ...]]) -> None:
        for slot, e, side in self._slots:
            slot[1] = _perm_tables(perms[e])[side]


# -- exhaustive cover sweeps -------------------------------------------------


def _sweep_order(g: PlaneGraph, sweep: _CoverSweep) -> list[int]:
    """The sweep's vertices in smallest-last order over its edges."""
    return [v for v in _search_order(g.vertex_count, sweep.edges)
            if v in sweep.vertices]


def _core_sweeps(g: PlaneGraph, k: int, budget: int) -> list[_CoverSweep]:
    """One sweep per component of the k-core of ``g`` (one empty sweep when
    the core is empty), after checking their raw covers against ``budget``.
    """
    core = _peel(g._adj, range(g.vertex_count), k)[1]
    sweeps = [_CoverSweep(g, k, comp)
              for comp in _components(g._adj, core) or [frozenset()]]
    raw = sum(sweep.total_covers for sweep in sweeps)
    if raw > budget:
        raise BudgetExceeded(
            f"{raw} covers of the {k}-core exceed budget {budget}")
    return sweeps


def dp_colorable(g: PlaneGraph, k: int, mode: str = "exhaustive", *,
                 samples: int = 1000, seed: int = 0,
                 budget: int = DEFAULT_COVER_BUDGET) -> ColorabilityVerdict:
    """Decide whether every cover with lists of size k admits a transversal.

    Exhaustive mode first peels vertices of degree < k, which can always
    be colored last whatever the matchings, and then sweeps the canonical
    covers of each component of the remaining k-core separately: covers of
    disjoint components are independent.  ``covers_checked`` sums the
    canonical covers swept (an empty core counts as one cover), and
    ``budget`` bounds the raw count, the sum of (k!)**(|E(R)|-|V(R)|+1)
    over the components R, before the sweep starts.  Sampled mode
    draws seeded random permutation covers of all of G and is labeled as
    such in the verdict.

    A counterexample is a cover of all of G: the failing component's
    permutations and the identity on every other edge.  It is re-checked
    with :func:`find_transversal` before it is returned; SolverError
    reports a disagreement.
    """
    if mode == "exhaustive":
        parts = [(sweep, sweep.stream("canonical"))
                 for sweep in _core_sweeps(g, k, budget)]
        sampling: dict = {}
    else:
        sweep = _CoverSweep(g, k)
        if mode != "sampled":
            raise ValueError(f"unknown mode {mode!r}")
        parts = [(sweep, sweep.stream("sampled", samples, seed))]
        sampling = {"samples": samples, "seed": seed}
    checked = 0
    for sweep, stream in parts:
        order = _sweep_order(g, sweep)
        tables = _PermTables(order, sweep.edges)
        domains = [(1 << k) - 1] * len(order)
        for perms in stream:
            checked += 1
            tables.load(perms)
            if next(_search(domains, tables.constraints), None) is None:
                bad = sweep.cover_from(perms)
                if find_transversal(cover_graph(g, bad)) is not None:
                    raise SolverError("sweep counterexample has a transversal")
                return ColorabilityVerdict(mode, False, bad, checked,
                                           **sampling)
    return ColorabilityVerdict(mode, True, None, checked, **sampling)


def dp_chromatic(g: PlaneGraph, k_max: int, *,
                 budget: int = DEFAULT_COVER_BUDGET) -> Optional[int]:
    """Smallest k <= k_max whose exhaustive sweep is all-colorable, else None.

    Each k runs :func:`dp_colorable` in exhaustive mode: it sweeps the
    canonical covers of the components of the k-core, and ``budget``
    bounds their raw count, one k at a time.  At k = degeneracy + 1 the
    core is empty, and one empty cover answers.
    """
    for k in range(1, k_max + 1):
        if dp_colorable(g, k, "exhaustive", budget=budget).all_colorable:
            return k
    return None


# -- ordinary and list chromatic numbers -------------------------------------


def chromatic(g: PlaneGraph, k_max: int, *,
              budget: int = DEFAULT_NODE_BUDGET) -> Optional[int]:
    """Smallest k <= k_max admitting a proper k-coloring, else None."""
    edges = g.edges()
    tables = _PermTables(_search_order(g.vertex_count, edges), edges)
    counter = [budget]
    for k in range(1, k_max + 1):
        tables.load([tuple(range(1, k + 1))] * len(edges))  # the diagonal cover
        # colors are interchangeable, so the first vertex takes color 0
        domains = [1] + [(1 << k) - 1] * (g.vertex_count - 1)
        if next(_search(domains, tables.constraints, counter), None) is not None:
            return k
    return None


class _Choosability:
    """Exact list-chromatic checks by canonical list-assignment search.

    Assignments are enumerated up to renaming colors (fresh colors always
    take the smallest unused ids), which covers every assignment from an
    arbitrary color pool.  Two sound reductions keep the search small:
    vertices with degree below k are peeled (they can always be colored
    last), and once every vertex-deleted subgraph is known k-choosable,
    only assignments where each list color reappears on a neighbor can be
    bad, so all other branches are pruned.  In the search order, the
    colors forced at position i are those of each earlier neighbor p
    whose last neighbor is i that no other neighbor of p carries.
    """

    def __init__(self, adj: Sequence[frozenset[int]], k: int, counter: list[int]):
        self.adj = adj
        self.k = k
        self.counter = counter
        self.memo: dict[frozenset[int], bool] = {}

    def choosable(self, subset: frozenset[int]) -> bool:
        # each frame yields the subsets it needs and is sent their verdicts
        stack = [self._frame(subset)]
        value = None
        while True:
            try:
                stack.append(self._frame(stack[-1].send(value)))
                value = None
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value

    def _frame(self, subset: frozenset[int]) -> Iterator[frozenset[int]]:
        subset = _peel(self.adj, subset, self.k)[1]
        if not subset:
            return True
        hit = self.memo.get(subset)
        if hit is not None:
            return hit
        comps = _components(self.adj, subset)
        children = comps if len(comps) > 1 else \
            (subset - {v} for v in sorted(subset))
        result = True
        for child in children:
            if not (yield child):
                result = False
                break
        if result and len(comps) == 1:
            result = not self._bad_assignment_exists(subset)
        self.memo[subset] = result
        return result

    def _bad_assignment_exists(self, subset: frozenset[int]) -> bool:
        k = self.k
        # BFS order keeps processed vertices adjacent to upcoming ones
        order = _reach(self.adj, min(subset), subset)
        m = len(order)
        pos = {v: i for i, v in enumerate(order)}
        nbr_pos = [sorted(pos[u] for u in self.adj[v] & subset) for v in order]
        earlier = [[p for p in nbr_pos[i] if p < i] for i in range(m)]
        last_future = [max((p for p in nbr_pos[i] if p > i), default=-1)
                       for i in range(m)]
        # lists[i]: bitmask of the colors at position i; colors never exceed
        # k * m, the most fresh ids the search hands out
        lists = [0] * m
        same = tuple(1 << c for c in range(k * m + 1))
        constraints = [[(p, same) for p in earlier[i]] for i in range(m)]

        def union(positions: Iterable[int]) -> int:
            out = 0
            for p in positions:
                out |= lists[p]
            return out

        def candidates(i: int, used: int) -> Iterator[tuple[int, int]]:
            """(list bitmask, highest color id) of each list for position i."""
            forced = 0
            for p in earlier[i]:
                if last_future[p] == i:  # p's other neighbors all precede i
                    forced |= lists[p] & ~union(nbr_pos[p][:-1])
            n_forced = bin(forced).count("1")
            old_pool = [c for c in range(1, used + 1) if not forced >> c & 1]
            seen_before = union(earlier[i])
            has_future = last_future[i] >= 0
            for fresh in range(0, k - n_forced + 1):
                if fresh and not has_future:
                    break  # a brand-new color here could never reappear
                fresh_mask = sum(same[used + 1:used + 1 + fresh])
                for old in itertools.combinations(old_pool, k - n_forced - fresh):
                    cand = forced | fresh_mask | sum(same[c] for c in old)
                    # no later neighbor: every color must be on an earlier one
                    if has_future or not cand & ~seen_before:
                        yield cand, used + fresh

        # stack[i] yields the candidate lists of position i; each pass of
        # the loop enters one node, at position len(stack)
        stack: list[Iterator[tuple[int, int]]] = []
        used = 0
        while True:
            self.counter[0] -= 1
            if self.counter[0] < 0:
                raise BudgetExceeded("choosability search budget exhausted")
            if len(stack) < m:
                stack.append(candidates(len(stack), used))
            elif next(_search(lists, constraints), None) is None:
                return True
            while stack and (nxt := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return False
            lists[len(stack) - 1], used = nxt


def list_chromatic(g: PlaneGraph, k_max: int, *,
                   budget: int = DEFAULT_NODE_BUDGET) -> Optional[int]:
    """Smallest k <= k_max such that every size-k list assignment is colorable.

    Exact: enumeration up to color renaming is exhaustive over arbitrary
    pools (fresh colors are introduced at most k per vertex, so a pool of
    k*|V| colors already contains a representative of every assignment).
    """
    counter = [budget]
    full = frozenset(range(g.vertex_count))
    # a graph with an edge is not 1-choosable
    for k in range(2 if g.edge_count else 1, k_max + 1):
        if _Choosability(g._adj, k, counter).choosable(full):
            return k
    return None


# -- precoloring-extension surveys -------------------------------------------


@dataclass
class ExtensionFailure:
    cover: Cover
    precoloring: Precoloring


@dataclass
class ExtensionSurvey:
    """Result of an extension survey of one cycle C (any distinct vertices).

    Sampled mode sweeps seeded covers of all of G: ``covers_checked``
    counts them, ``precolorings_checked`` the valid precolorings of C
    under them, and ``failure_count`` those that do not extend; the first
    :data:`KEPT_FAILURES` are kept in ``failures``.

    Exhaustive mode sweeps the residual graph G - C, one component at a
    time.  ``covers_checked`` sums the canonical covers of the components
    (an empty G - C counts as one empty component, with one cover), and
    ``precolorings_checked`` sums the configurations checked under them:
    one banned color set per residual vertex, each standing for the
    precolorings of C that ban those colors.  Each failure is one
    uncolorable configuration, lifted to a cover of G and a valid
    precoloring of C that does not extend under it; ``failure_count``
    counts them and the first :data:`KEPT_FAILURES` are kept.

    At k = 1 a cycle with an edge has no valid precoloring, so such a
    survey is vacuous: one cover, ``precolorings_checked == 0`` and
    ``all_extendable`` holds.
    """

    mode: str
    cycle: tuple[int, ...]
    k: int
    covers_checked: int
    precolorings_checked: int
    failures: list[ExtensionFailure] = field(default_factory=list)
    samples: Optional[int] = None
    seed: Optional[int] = None
    failure_count: int = 0

    @property
    def all_extendable(self) -> bool:
        return self.failure_count == 0


def _extension_sweep(g: PlaneGraph, k: int, first: Sequence[int],
                     prefix: Sequence[int], stream: Iterator
                     ) -> Iterator[tuple[tuple, list[tuple[tuple[int, ...], bool]]]]:
    """Per cover of ``stream``: the valid precolorings of ``first``, each
    with whether it extends to a transversal.

    ``prefix[i]`` is the bitmask of colors allowed at ``first[i]``; the
    precolorings are the kernel's solutions on those positions, as color
    indices, in ascending order.  One search order serves every cover:
    ``first``, then the other vertices in smallest-last order.
    """
    edges = g.edges()
    tables = _PermTables(_search_order(g.vertex_count, edges, first), edges)
    rest = [(1 << k) - 1] * (g.vertex_count - len(first))
    for perms in stream:
        tables.load(perms)
        yield perms, [
            (pre, next(_search([1 << c for c in pre] + rest,
                               tables.constraints), None) is not None)
            for pre in _search(prefix, tables.constraints)]


def _check_cycle(g: PlaneGraph, cycle: Sequence[int]) -> tuple[int, ...]:
    """``cycle`` as a tuple of distinct vertices of ``g``, else ValueError."""
    cyc = tuple(cycle)
    if not all(0 <= v < g.vertex_count for v in cyc):
        raise ValueError(f"cycle vertices must lie in 0..{g.vertex_count - 1}")
    if len(set(cyc)) != len(cyc):
        raise ValueError(f"cycle {cyc} repeats a vertex")
    return cyc


def survey_precoloring_extensions(g: PlaneGraph, cycle: Sequence[int], k: int,
                                  mode: str = "exhaustive", *,
                                  samples: int = 500, seed: int = 0,
                                  budget: int = DEFAULT_COVER_BUDGET
                                  ) -> ExtensionSurvey:
    """Check that every valid precoloring of ``cycle`` extends, under every
    full k-cover (exhaustive) or under seeded sampled covers.

    A precoloring is valid when it is independent on the subgraph induced
    by the cycle's vertices (cycle edges and chords alike).  ValueError
    reports a cycle vertex out of range or repeated.

    Exhaustive mode decides the question on G - C, C the cycle's vertices:
    it holds exactly when every component R of G - C is colorable under
    each cover of R with min(|N(v) & C|, k) colors banned at each vertex v,
    whichever they are.  A valid precoloring bans at most |N(v) & C| colors
    at v and larger banned sets only hurt, so that sweep is exhaustive; it
    reads R's canonical covers, since a common renaming permutes the banned
    sets among themselves.  Conversely, each uncolorable configuration is
    lifted to a failure: color 1 on every vertex of C, shift permutations
    on the edges inside C, and on the edges from C to v a transposition
    (1 x) per banned color x of v.  Components are independent, so their
    counts add.  ``budget`` bounds the configurations swept, and the
    (k!)**2 renaming table the canonical stream builds when a component
    has a cycle; both are checked before the sweep.

    Sampled mode draws the same seeded covers of G as sampled
    :func:`dp_colorable`.  Per cover, the valid precolorings are enumerated
    in ascending order (colors by cycle position) and each is extended by
    a search that fixes the cycle first.

    At k = 1 a cycle with an edge has no valid precoloring, so the survey
    is vacuous (``precolorings_checked == 0``), not a proof of extension.
    """
    cyc = _check_cycle(g, cycle)
    if mode == "exhaustive" and k == 1 and any(
            g.has_edge(u, v) for u, v in itertools.combinations(cyc, 2)):
        # an edge inside the cycle leaves no valid precoloring under the one
        # 1-cover of G; the lifted failures need k >= 2 there
        if budget < 1:
            raise BudgetExceeded(f"1 covers exceed budget {budget}")
        return ExtensionSurvey("exhaustive", cyc, 1, 1, 0)
    if mode == "exhaustive" and k >= 1:
        return _residual_survey(g, cyc, k, budget)
    sweep = _CoverSweep(g, k)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    stream = sweep.stream("sampled", samples, seed)
    survey = ExtensionSurvey(mode, cyc, k, 0, 0, samples=samples, seed=seed)
    for perms, results in _extension_sweep(g, k, cyc, [(1 << k) - 1] * len(cyc),
                                           stream):
        survey.covers_checked += 1
        survey.precolorings_checked += len(results)
        for pre, extends in results:
            if not extends:
                survey.failure_count += 1
                if len(survey.failures) < KEPT_FAILURES:
                    colors = {v: c + 1 for v, c in zip(cyc, pre)}
                    survey.failures.append(ExtensionFailure(
                        sweep.cover_from(perms), Precoloring.of(colors)))
    return survey


def _residual_survey(g: PlaneGraph, cyc: tuple[int, ...], k: int,
                     budget: int) -> ExtensionSurvey:
    """The exhaustive survey, swept on the components of G - C."""
    on_cycle = frozenset(cyc)
    comps = _components(g._adj, frozenset(range(g.vertex_count)) - on_cycle)
    comps = comps or [frozenset()]
    full = (1 << k) - 1
    # per residual vertex: its open colors under each banned set
    domains = {v: [full & ~sum(1 << c for c in banned)
                   for banned in itertools.combinations(
                       range(k), min(len(g._adj[v] & on_cycle), k))]
               for comp in comps for v in comp}
    sweeps = [_CoverSweep(g, k, comp) for comp in comps]
    # a component with non-tree edges first builds its (k!)**2 renaming table
    if any(sweep.non_tree for sweep in sweeps) \
            and math.factorial(k) ** 2 > budget:
        raise BudgetExceeded(
            f"the {k}! x {k}! renaming table exceeds budget {budget}")
    total = sum(sweep.canonical_covers
                * math.prod(len(domains[v]) for v in comp)
                for comp, sweep in zip(comps, sweeps))
    if total > budget:
        raise BudgetExceeded(
            f"{total} residual configurations exceed budget {budget}")
    survey = ExtensionSurvey("exhaustive", cyc, k, 0, 0)
    for comp, sweep in zip(comps, sweeps):
        order = _sweep_order(g, sweep)
        tables = _PermTables(order, sweep.edges)
        choices = [domains[v] for v in order]
        for perms in sweep.stream("canonical"):
            survey.covers_checked += 1
            tables.load(perms)
            for open_colors in itertools.product(*choices):
                survey.precolorings_checked += 1
                if next(_search(open_colors, tables.constraints),
                        None) is not None:
                    continue
                survey.failure_count += 1
                if len(survey.failures) < KEPT_FAILURES:
                    survey.failures.append(_lifted_failure(
                        g, cyc, k, dict(zip(sweep.edges, perms)),
                        dict(zip(order, open_colors))))
    return survey


def _lifted_failure(g: PlaneGraph, cyc: tuple[int, ...], k: int,
                    residual: Mapping[tuple[int, int], tuple[int, ...]],
                    open_colors: Mapping[int, int]) -> ExtensionFailure:
    """A cover of ``g`` and a valid precoloring of ``cyc`` that leave each
    vertex v of ``open_colors`` exactly the colors of bitmask
    ``open_colors[v]``, under the permutations ``residual`` (by edge).

    Every cycle vertex takes color 1.  Edges inside the cycle get the shift
    c -> c + 1 (mod k), which never matches 1 with 1 when k >= 2.  The
    edges from the cycle to v get the transpositions (1 x), x running
    through the banned colors of v (round again when v has more cycle
    neighbors than k).  Every other edge keeps its permutation in
    ``residual``, or else the identity.
    """
    on_cycle = frozenset(cyc)
    table = dict(residual)
    shift = tuple(range(2, k + 1)) + (1,)
    for u, v in g.edges():
        if u in on_cycle and v in on_cycle:
            table[(u, v)] = shift
    for v, mask in open_colors.items():
        banned = [c for c in range(1, k + 1) if not mask >> (c - 1) & 1]
        for i, u in enumerate(sorted(on_cycle.intersection(g.neighbors(v)))):
            x = banned[i % len(banned)]
            swap = list(range(1, k + 1))
            swap[0], swap[x - 1] = x, 1
            table[(u, v)] = tuple(swap)
    return ExtensionFailure(full_cover(g, k, table_chooser(table)),
                            Precoloring.of(dict.fromkeys(cyc, 1)))


def _extension_counts(g: PlaneGraph, pre: Precoloring, k: int, samples: int,
                      seed: int) -> tuple[int, int, int]:
    """Covers swept, those under which ``pre`` (colors in 1..k) is valid,
    and those where it does not extend.

    ``samples == 0`` sweeps the full stream, not the canonical one: a fixed
    precoloring breaks the common-renaming symmetry.
    """
    sweep = _CoverSweep(g, k)
    if not samples and sweep.total_covers > DEFAULT_COVER_BUDGET:
        raise BudgetExceeded(f"{sweep.total_covers} covers exceed budget "
                             f"{DEFAULT_COVER_BUDGET}")
    stream = sweep.stream("sampled" if samples else "full", samples, seed)
    checked = valid = failures = 0
    for _, results in _extension_sweep(g, k, [v for v, _ in pre.items],
                                       [1 << (c - 1) for _, c in pre.items],
                                       stream):
        checked += 1
        valid += len(results)
        failures += sum(not extends for _, extends in results)
    return checked, valid, failures


def greedy_extension_order(g: PlaneGraph, cycle: Sequence[int],
                           k: int) -> Optional[list[int]]:
    """An order proving every precoloring of ``cycle`` extends, if one exists.

    Peels vertices outside the cycle whose remaining constraint count
    (neighbors on the cycle plus not-yet-peeled neighbors) stays below k;
    coloring the reversed order always leaves a free color, whatever the
    matchings are, so success makes any per-cover sweep unnecessary.
    """
    peeled, rest = _peel(g._adj, range(g.vertex_count), k, keep=cycle)
    return None if rest - set(cycle) else peeled[::-1]
