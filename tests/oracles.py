"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and kept free of the library's
search code paths: subset enumeration for cycles, full assignment
enumeration for coloring and transversal counts.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from dpcolor.plane_graph import Cycle


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


def degeneracy(n: int, adj: Sequence[Iterable[int]]) -> int:
    """The most neighbors a vertex keeps when it is peeled in smallest-last
    order."""
    order = degeneracy_order_quadratic(n, adj)
    return max((len(set(adj[v]) & set(order[:i]))
                for i, v in enumerate(order)), default=0)


def cycle_sides_face_bfs(g, verts: Sequence[int]
                         ) -> tuple[frozenset[int], frozenset[int]]:
    """(interior, exterior) vertex sets of a cycle by two-coloring the faces:
    crossing a cycle edge flips sides, the outer face is on the exterior."""
    m = len(verts)
    on_cycle = set(verts)
    cyc_edges = {(min(verts[i], verts[(i + 1) % m]),
                  max(verts[i], verts[(i + 1) % m])) for i in range(m)}
    side: dict[int, int] = {g.outer_face_id: 0}
    stack = [g.outer_face_id]
    while stack:
        f = stack.pop()
        for u, v in g.face(f).edge_set():
            f1, f2 = g.faces_at_edge(u, v)
            other = f2 if f1 == f else f1
            if other == f:
                continue
            want = side[f] ^ (1 if (u, v) in cyc_edges else 0)
            if other not in side:
                side[other] = want
                stack.append(other)
    interior: set[int] = set()
    exterior: set[int] = set()
    for f in g.faces:
        bucket = interior if side.get(f.id, 0) else exterior
        bucket |= f.vertex_set() - on_cycle
    return frozenset(interior), frozenset(exterior)


def bad_witnesses_scan(g, verts: Sequence[int]) -> tuple[int, ...]:
    """Every vertex off the cycle of degree >= 4 with >= 4 neighbors on it."""
    on_cycle = set(verts)
    return tuple(u for u in range(g.vertex_count)
                 if u not in on_cycle and g.degree(u) >= 4
                 and sum(1 for w in g.neighbors(u) if w in on_cycle) >= 4)


def class_membership_pairwise(cycles: Iterable[Sequence[int]]
                              ) -> tuple[bool, bool]:
    """(in g1, in g2): no 4-cycle shares an edge with a 5-cycle, resp. a
    6-cycle, by comparing every 4-cycle with every 5- and 6-cycle."""
    by_len: dict[int, list[set[tuple[int, int]]]] = {4: [], 5: [], 6: []}
    for c in cycles:
        if len(c) in by_len:
            by_len[len(c)].append({(min(c[i], c[(i + 1) % len(c)]),
                                    max(c[i], c[(i + 1) % len(c)]))
                                   for i in range(len(c))})
    in_g1 = not any(e4 & e5 for e4 in by_len[4] for e5 in by_len[5])
    in_g2 = not any(e4 & e6 for e4 in by_len[4] for e6 in by_len[6])
    return in_g1, in_g2


def greedy_extension_order_scan(g, cycle: Sequence[int],
                                k: int) -> "list[int] | None":
    """Peel, by a full scan per step, the smallest vertex off the cycle with
    fewer than k neighbors on the cycle or not yet peeled; None when stuck,
    else the reversed peeling order."""
    cyc_set = set(cycle)
    left = {v for v in range(g.vertex_count) if v not in cyc_set}
    peeled: list[int] = []
    while left:
        pick = None
        for v in sorted(left):
            constraints = sum(1 for u in g.neighbors(v)
                              if u in cyc_set or u in left)
            if constraints <= k - 1:
                pick = v
                break
        if pick is None:
            return None
        left.discard(pick)
        peeled.append(pick)
    peeled.reverse()
    return peeled


def bfs_tree_edges_queue(g, root: int = 0,
                         within: "Iterable[int] | None" = None
                         ) -> list[tuple[int, int]]:
    """Breadth-first spanning tree edges by an explicit queue: neighbors in
    ascending order, each vertex's edge recorded when it is discovered."""
    inside = None if within is None else set(within)
    seen = {root}
    queue = [root]
    tree: list[tuple[int, int]] = []
    while queue:
        u = queue.pop(0)
        for v in sorted(g.neighbors(u)):
            if v not in seen and (inside is None or v in inside):
                seen.add(v)
                tree.append((min(u, v), max(u, v)))
                queue.append(v)
    return tree


def has_cycle_union_find(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the (distinct) edges close a cycle, by union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in {(min(u, v), max(u, v)) for u, v in edges}:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def connected_graphs_mask_scan(n: int) -> Iterator[list[tuple[int, int]]]:
    """All connected graphs on n labeled vertices, one per iso class, in
    their least-bitmask labelling and in ascending order of that mask.

    Bit t of an edge bitmask stands for the t-th vertex pair in
    lexicographic order.  Every mask is scanned in ascending order and
    kept when no vertex permutation maps its edges to a smaller mask.
    """
    import networkx as nx

    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {slot: t for t, slot in enumerate(slots)}
    images = [[1 << index[min(p[i], p[j]), max(p[i], p[j])] for i, j in slots]
              for p in itertools.permutations(range(n))]
    for mask in range(1 << len(slots)):
        if mask.bit_count() < n - 1:
            continue
        bits = [t for t in range(len(slots)) if mask >> t & 1]
        if any(sum(map(image.__getitem__, bits)) < mask for image in images):
            continue
        edges = [slots[t] for t in bits]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        # networkx calls the null graph's connectivity undefined
        if n > 0 and nx.is_connected(graph):
            yield edges


def enumerate_cycles_unpruned(g, max_len: int) -> list[Cycle]:
    """The cycle enumeration without distance pruning: every simple path up
    from each root, then one sort by (length, vertices)."""
    if max_len < 3:
        return []
    adj = [sorted(g.neighbors(v)) for v in range(g.vertex_count)]
    out: list[Cycle] = []
    on_path = [False] * g.vertex_count
    for root in range(g.vertex_count):
        # simple paths up from the root, on an explicit stack; each one
        # closes into a cycle when its end is adjacent to the root
        path = [root]
        closing = set(adj[root])
        stack = [iter(adj[root])]
        while stack:
            for w in stack[-1]:
                if w > root and not on_path[w]:
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
                continue
            path.append(w)
            if len(path) >= 3 and path[1] < w and w in closing:
                out.append(Cycle(tuple(path)))
            if len(path) < max_len:
                on_path[w] = True
                stack.append(iter(adj[w]))
            else:
                path.pop()
    out.sort(key=lambda c: (c.length, c.vertices))
    return out
