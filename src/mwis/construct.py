"""Initial solution construction and the density parameter that picks the method."""

from __future__ import annotations

import heapq
import math

from .graph import Graph
from .reduction import _Reducer, resolve_trace

# Exact integer evaluation is used up to this many terms of the degree series;
# pathological near-unit average degrees fall back to float arithmetic.
_EXACT_TERMS = 64

# Graphs whose density radius is at most this are dense: they get the greedy
# construction and the composite search loop.
DENSE_RADIUS = 2


def density_radius(g: Graph) -> int:
    """Smallest level L such that sum_{i=0}^{L} avg_deg^i reaches n/10.

    Small values mean a breadth-first ball of that radius already covers a
    tenth of the graph, i.e. the graph is dense. Comparisons at the threshold
    are exact integer arithmetic. When the series cannot reach the threshold
    (average degree <= 1), the result is capped at n.
    """
    n = g.n
    if n < 1:
        raise ValueError("density radius needs at least one vertex")
    two_m = 2 * g.m
    # Condition at level L: 10 * sum_{i<=L} (2m)^i n^(L-i)  >=  n^(L+1).
    if 10 >= n:  # level 0 term alone suffices
        return 0
    if two_m == n:  # average degree exactly 1: sum is L+1
        return (n + 9) // 10 - 1
    if two_m < n:
        # Geometric series bounded by n/(n-2m); reaches n/10 only if n-2m <= 10.
        if n - two_m > 10:
            return n
    partial = 1  # sum_{i<=L} (2m)^i n^(L-i)
    power = 1  # (2m)^L
    n_pow = n  # n^(L+1)
    level = 0
    while level < _EXACT_TERMS:
        level += 1
        power *= two_m
        partial = partial * n + power
        n_pow *= n
        if 10 * partial >= n_pow:
            return level
    # Fallback for slowly growing series: float evaluation of the closed form.
    d = two_m / n
    total = sum(d**i for i in range(level + 1))
    threshold = n / 10
    while total < threshold and level < n:
        level += 1
        total += d**level
    return level


def greedy_construction(g: Graph) -> list[int]:
    """Maximal independent set by repeatedly taking the best weight/sqrt(degree)
    vertex of the shrinking graph (degree-zero vertices always win, ties go to
    the smallest id). Returns the vertices in pick order.

    The heap is lazily invalidated: an entry (-score, v, degree) is valid while
    v is alive at that degree. The vertices whose degree fell while one pick
    removed its neighborhood are re-pushed once, after the pick, so the heap
    holds exactly one valid entry per alive vertex at every pop.
    """
    n = g.n
    alive = [True] * n
    degree = [len(a) for a in g.adjacency]
    weights = g.weights

    def score(v: int) -> float:
        d = degree[v]
        return math.inf if d == 0 else weights[v] / math.sqrt(d)

    heap = [(-score(v), v, degree[v]) for v in range(n)]
    heapq.heapify(heap)
    chosen: list[int] = []
    touched: set[int] = set()
    while heap:
        _, v, deg_at_push = heapq.heappop(heap)
        if not alive[v] or deg_at_push != degree[v]:
            continue  # stale entry; a fresh one is (or was) in the heap
        chosen.append(v)
        alive[v] = False
        for u in g.adjacency[v]:
            if alive[u]:
                alive[u] = False
                for x in g.adjacency[u]:
                    if alive[x]:
                        degree[x] -= 1
                        touched.add(x)
        for x in touched:
            if alive[x]:
                heapq.heappush(heap, (-score(x), x, degree[x]))
        touched.clear()
    return chosen


def reduction_construction(g: Graph) -> list[int]:
    """Maximal independent set for sparse graphs: exhaust the cheap reduction
    rules, and when they stall, permanently take the vertex with the best
    weight advantage over its neighborhood (ties go to the smallest id).
    Returns the vertices in ascending order.

    The best vertex comes from a lazily invalidated heap keyed by
    (nbw - weight, id). Only the rules 0-2 run here, so the fold rule's dirty
    set is never drained: once its every-vertex flag has seeded the heap, it
    collects exactly the vertices whose weight or neighborhood weight
    changed, and those are re-keyed before each pick.
    """
    red = _Reducer(g)
    cheap_rules = (0, 1, 2)  # isolated, degree-one, neighborhood
    changed = red._dirty[4]
    weight, nbw, alive = red.weight, red.nbw, red.alive
    heap: list[tuple[int, int]] = []
    while red.alive_count > 0:
        red.run_rules(cheap_rules)
        if red.alive_count == 0:
            break
        if red._all_dirty[4]:
            red._all_dirty[4] = False
            heap = [(nbw[v] - weight[v], v) for v in range(len(alive)) if alive[v]]
            heapq.heapify(heap)
        for v in changed:
            if alive[v]:
                heapq.heappush(heap, (nbw[v] - weight[v], v))
        changed.clear()
        if len(heap) > 2 * red.alive_count:
            heap = _compact_heap(heap, alive, nbw, weight)
        while True:
            key, v = heapq.heappop(heap)
            if alive[v] and key == nbw[v] - weight[v]:
                break
        red.take(v)
    return resolve_trace(red.trace, set(), g.n)


def _compact_heap(
    heap: list[tuple[int, int]], alive: list[bool], nbw: list[int], weight: list[int]
) -> list[tuple[int, int]]:
    """The entries of `heap` that are still valid, re-heapified. Entries pop
    in (key, id) order, so dropping the stale ones leaves the picks as they
    were."""
    valid = [e for e in heap if alive[e[1]] and e[0] == nbw[e[1]] - weight[e[1]]]
    heapq.heapify(valid)
    return valid


def build_initial_solution(g: Graph, radius: int) -> list[int]:
    """Initial maximal independent set: reduction-guided for sparse graphs
    (radius > DENSE_RADIUS), greedy score-based otherwise."""
    if radius > DENSE_RADIUS:
        return reduction_construction(g)
    return greedy_construction(g)
