"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and kept free of the library's
search code paths: subset enumeration for cycles, full assignment
enumeration for coloring and transversal counts.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence


def brute_force_cycles(n: int, edges: Iterable[tuple[int, int]],
                       max_len: int) -> set[tuple[int, ...]]:
    """All simple cycles up to max_len, canonicalized like the library:
    start at the smallest vertex, run toward its smaller cycle-neighbor."""
    es = {(min(u, v), max(u, v)) for u, v in edges}

    def is_edge(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in es

    found: set[tuple[int, ...]] = set()
    for size in range(3, max_len + 1):
        for subset in itertools.combinations(range(n), size):
            root = subset[0]
            for perm in itertools.permutations(subset[1:]):
                cyc = (root,) + perm
                if all(is_edge(cyc[i], cyc[(i + 1) % size])
                       for i in range(size)):
                    if cyc[1] < cyc[-1]:
                        found.add(cyc)
    return found


def list_colorable(adj: Sequence[Iterable[int]],
                   lists: Sequence[Iterable[int]]) -> bool:
    """Plain recursive proper-coloring check with per-vertex lists."""
    n = len(adj)
    chosen: dict[int, int] = {}

    def rec(v: int) -> bool:
        if v == n:
            return True
        for c in lists[v]:
            if all(chosen.get(u) != c for u in adj[v]):
                chosen[v] = c
                if rec(v + 1):
                    return True
                del chosen[v]
        return False

    return rec(0)


def count_transversals(lists: Sequence[Sequence[int]],
                       matching: Mapping[tuple[int, int],
                                         Iterable[tuple[int, int]]]) -> int:
    """Count transversals by enumerating the full assignment product."""
    n = len(lists)
    pair_sets = {e: set(map(tuple, ps)) for e, ps in matching.items()}
    count = 0
    for combo in itertools.product(*lists):
        ok = True
        for (u, v), pairs in pair_sets.items():
            if (combo[u], combo[v]) in pairs:
                ok = False
                break
        if ok:
            count += 1
    return count


def has_transversal_brute(lists, matching) -> bool:
    n = len(lists)
    pair_sets = {e: set(map(tuple, ps)) for e, ps in matching.items()}
    for combo in itertools.product(*lists):
        if all((combo[u], combo[v]) not in pairs
               for (u, v), pairs in pair_sets.items()):
            return True
    return False


def choosable_bounded_pool(adj: Sequence[Iterable[int]], k: int) -> bool:
    """k-choosability by enumerating every assignment from a k*n color pool.

    Exponential in the extreme; usable for at most ~4 vertices.
    """
    n = len(adj)
    pool = range(1, k * n + 1)
    for assignment in itertools.product(itertools.combinations(pool, k),
                                        repeat=n):
        if not list_colorable(adj, assignment):
            return False
    return True


def degeneracy_order_quadratic(n: int, adj: Sequence[Iterable[int]]) -> list[int]:
    """Smallest-last order by a full scan per step: peel the vertex of least
    (remaining degree, index), then reverse."""
    nbrs = [set(a) for a in adj]
    degree = [len(a) for a in nbrs]
    removed = [False] * n
    peeled: list[int] = []
    for _ in range(n):
        v = min((x for x in range(n) if not removed[x]),
                key=lambda x: (degree[x], x))
        removed[v] = True
        peeled.append(v)
        for u in nbrs[v]:
            if not removed[u]:
                degree[u] -= 1
    peeled.reverse()
    return peeled
