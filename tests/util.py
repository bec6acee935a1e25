"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import heapq
import math
import random

from mwis import Graph, VertexSet, build_graph
from mwis.reduction import Kernel, _Reducer, resolve_trace


def random_graph(rng: random.Random, n: int, p: float, max_weight: int = 200) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    return build_graph(n, edges, weights)


def random_gnm_graph(rng: random.Random, n: int, m: int, max_weight: int = 200) -> Graph:
    """n vertices, exactly m distinct edges sampled uniformly."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    return build_graph(n, sorted(edges), weights)


def path_graph(weights: list[int]) -> Graph:
    n = len(weights)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(weights: list[int]) -> Graph:
    n = len(weights)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], weights)


def star_graph(center_weight: int, leaf_weights: list[int]) -> Graph:
    """Vertex 0 is the center."""
    n = 1 + len(leaf_weights)
    return build_graph(n, [(0, i) for i in range(1, n)], [center_weight] + leaf_weights)


def cube_graph() -> Graph:
    """The 3-cube with unit weights: 3-regular and triangle-free, so no
    reduction rule applies to it."""
    edges = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    return build_graph(8, edges, [1] * 8)


def edgeless_graph(weights: list[int]) -> Graph:
    return build_graph(len(weights), [], weights)


def p3_151() -> Graph:
    return path_graph([1, 5, 1])


def c4_3131() -> Graph:
    return cycle_graph([3, 1, 3, 1])


def path_mwis_weight(weights: list[int]) -> int:
    """Classic DP for maximum-weight independent set on a path."""
    take = skip = 0
    for w in weights:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


def cycle_mwis_weight(weights: list[int]) -> int:
    """DP oracle for a cycle: branch on whether vertex 0 is used."""
    n = len(weights)
    if n == 1:
        return weights[0]
    if n == 2:
        return max(weights)
    without_v0 = path_mwis_weight(weights[1:])
    with_v0 = weights[0] + path_mwis_weight(weights[2 : n - 1])
    return max(without_v0, with_v0)


def all_pairs_bfs(g: Graph) -> list[list[int]]:
    """Naive all-pairs BFS distances; -1 for unreachable."""
    from collections import deque

    out = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        out.append(dist)
    return out


def random_maximal_is(rng: random.Random, g: Graph) -> list[int]:
    """Maximal independent set grown in random vertex order."""
    order = list(range(g.n))
    rng.shuffle(order)
    blocked = [False] * g.n
    chosen = []
    for v in order:
        if not blocked[v]:
            chosen.append(v)
            blocked[v] = True
            for u in g.adjacency[v]:
                blocked[u] = True
    return chosen


def reference_reduction_construction(g: Graph) -> VertexSet:
    """Quadratic reference for `reduction_construction`: after the cheap rules
    stall, rescan every alive vertex for the largest weight - nbw gap (ties
    go to the smallest id) and take it."""
    red = _Reducer(g)
    while red.alive_count > 0:
        red.run_rules((0, 1, 2), deadline=None, verify=False)
        if red.alive_count == 0:
            break
        best_v = -1
        best_gap = None
        for v in range(len(red.alive)):
            if not red.alive[v]:
                continue
            gap = red.weight[v] - red.nbw[v]
            if best_gap is None or gap > best_gap:
                best_gap = gap
                best_v = v
        red.take(best_v)
    return resolve_trace(red.trace, set(), g.n)


def reference_greedy_construction(g: Graph) -> VertexSet:
    """Reference for `greedy_construction` that pushes a fresh heap entry on
    every single degree decrement (O(m) pushes) instead of once per touched
    vertex after each pick."""
    n = g.n
    alive = [True] * n
    degree = [len(a) for a in g.adjacency]
    weights = g.weights

    def score(v: int) -> float:
        d = degree[v]
        return math.inf if d == 0 else weights[v] / math.sqrt(d)

    heap = [(-score(v), v, degree[v]) for v in range(n)]
    heapq.heapify(heap)
    chosen = VertexSet()
    while heap:
        _, v, deg_at_push = heapq.heappop(heap)
        if not alive[v] or deg_at_push != degree[v]:
            continue
        chosen.add(v)
        alive[v] = False
        for u in g.adjacency[v]:
            if alive[u]:
                alive[u] = False
                for x in g.adjacency[u]:
                    if alive[x]:
                        degree[x] -= 1
                        heapq.heappush(heap, (-score(x), x, degree[x]))
    return chosen


def reference_reduce_graph(g: Graph) -> Kernel:
    """Reference for `reduce_graph` without a time cap that always ends with
    a verification sweep over every alive vertex, even when no rule fired,
    and always copies the working graph into the kernel."""
    red = _Reducer(g)
    rules = (0, 1, 2, 3, 4)
    while True:
        pos = 0
        while pos < len(rules):
            if red._run_one_rule(rules[pos], None):
                pos = 0
            else:
                pos += 1
        for r in rules:
            red._dirty[r] = {v for v in range(len(red.alive)) if red.alive[v]}
        if not any(red._run_one_rule(r, None) for r in rules):
            return red.kernel()
