"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import heapq
import math
import random
import time

from mwis import Graph, build_graph
from mwis.oracle import _adjacency_masks, _mask_vertices
from mwis.reduction import RULE_NAMES, Kernel, resolve_trace

EXHAUSTIVE_LIMIT = 20


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


def exhaustive_mwis(g: Graph) -> tuple[tuple[int, ...], int]:
    """Optimal independent set by enumerating every subset. Guarded to n <= 20."""
    if g.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to {EXHAUSTIVE_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return (), 0
    adj_mask = _adjacency_masks(g)
    weights = g.weights
    total = 1 << g.n
    independent = bytearray(total)
    subset_weight = [0] * total
    independent[0] = 1
    best_weight = 0
    best_tuple: tuple[int, ...] = ()
    for mask in range(1, total):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if independent[rest] and not (adj_mask[v] & rest):
            independent[mask] = 1
            w = subset_weight[rest] + weights[v]
            subset_weight[mask] = w
            if w > best_weight:
                best_weight = w
                best_tuple = _mask_vertices(mask)
            elif w == best_weight:
                cand = _mask_vertices(mask)
                if cand < best_tuple:
                    best_tuple = cand
    return best_tuple, best_weight


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


class ReferenceReducer:
    """The reducer as it was before it shared the input's adjacency lists:
    a private `set` per vertex, updated eagerly on every deletion. Kept as
    the reference for `mwis.reduction._Reducer`."""

    def __init__(self, g: Graph):
        self.source_n = g.n
        self.adj: list[set[int]] = [set(a) for a in g.adjacency]
        self.weight: list[int] = list(g.weights)
        self.alive: list[bool] = [True] * g.n
        self.alive_count = g.n
        # Sum of alive neighbor weights, kept incremental for O(1) rule checks.
        self.nbw: list[int] = [sum(g.weights[u] for u in a) for a in g.adjacency]
        self.offset = 0
        self.trace: list[tuple] = []
        self._dirty: list[set[int]] = [set(range(g.n)) for _ in RULE_NAMES]
        # Whether the graph changed since every rule last had every alive
        # vertex dirty; run_rules skips its verification sweep while False.
        self._changed = False

    # -- mutation primitives ---------------------------------------------

    def _mark(self, vertices) -> None:
        for d in self._dirty:
            d.update(vertices)

    def _delete(self, v: int) -> None:
        self._changed = True
        self.alive[v] = False
        self.alive_count -= 1
        wv = self.weight[v]
        nbs = self.adj[v]
        for u in nbs:
            self.adj[u].discard(v)
            self.nbw[u] -= wv
        self._mark(nbs)
        # Shrinking N[u] can newly expose domination two hops away.
        dom_dirty = self._dirty[3]
        for u in nbs:
            dom_dirty.update(self.adj[u])
        self.adj[v] = set()

    def _decrease_weight(self, u: int, delta: int) -> None:
        self.weight[u] -= delta
        for x in self.adj[u]:
            self.nbw[x] -= delta
        self._mark(self.adj[u])
        self._mark((u,))

    def _new_vertex(self, w: int, nbs: set[int]) -> int:
        f = len(self.adj)
        self.adj.append(set(nbs))
        self.weight.append(w)
        self.alive.append(True)
        self.alive_count += 1
        self.nbw.append(sum(self.weight[u] for u in nbs))
        for d in self._dirty:
            d.add(f)
        for u in nbs:
            self.adj[u].add(f)
            self.nbw[u] += w
        self._mark(nbs)
        dom_dirty = self._dirty[3]
        for u in nbs:
            dom_dirty.update(self.adj[u])
        return f

    def take(self, v: int) -> None:
        """Commit v to every lifted solution and drop its closed neighborhood."""
        self.trace.append(("take", v))
        self.offset += self.weight[v]
        for u in sorted(self.adj[v]):
            self._delete(u)
        self._delete(v)

    # -- rules -------------------------------------------------------------

    def _try_isolated(self, v: int) -> bool:
        if self.adj[v]:
            return False
        self.trace.append(("take", v))
        self.offset += self.weight[v]
        self._delete(v)
        return True

    def _try_degree_one(self, v: int) -> bool:
        if len(self.adj[v]) != 1:
            return False
        (u,) = self.adj[v]
        if self.weight[v] >= self.weight[u]:
            self.trace.append(("take", v))
            self.offset += self.weight[v]
            self._delete(u)
            self._delete(v)
        else:
            self.trace.append(("defer", v, u))
            self.offset += self.weight[v]
            self._decrease_weight(u, self.weight[v])
            self._delete(v)
        return True

    def _try_neighborhood(self, v: int) -> bool:
        if self.weight[v] < self.nbw[v]:
            return False
        self.take(v)
        return True

    def _try_domination(self, v: int) -> bool:
        adj_v = self.adj[v]
        wv = self.weight[v]
        for u in sorted(adj_v):
            if self.weight[u] < wv or len(self.adj[u]) > len(adj_v):
                continue
            if all(x == v or x in adj_v for x in self.adj[u]):
                self.trace.append(("drop", v))
                self._delete(v)
                return True
        return False

    def _try_fold(self, v: int) -> bool:
        if len(self.adj[v]) != 2:
            return False
        u, w = sorted(self.adj[v])
        if w in self.adj[u]:
            return False
        wv, wu, ww = self.weight[v], self.weight[u], self.weight[w]
        if wv < max(wu, ww) or wv >= wu + ww:
            return False
        merged = (self.adj[u] | self.adj[w]) - {u, v, w}
        self.offset += wv
        self._delete(v)
        self._delete(u)
        self._delete(w)
        f = self._new_vertex(wu + ww - wv, merged)
        self.trace.append(("fold", f, u, v, w))
        return True

    _RULES = (_try_isolated, _try_degree_one, _try_neighborhood, _try_domination, _try_fold)

    # -- driver ------------------------------------------------------------

    def run_rules(
        self, rule_indices: tuple[int, ...], deadline: float | None, verify: bool = True
    ) -> None:
        """Apply the selected rules to fixpoint, cheapest rule first.

        After any successful application the scan restarts at the cheapest
        rule. With verify=True a final full sweep confirms the fixpoint
        regardless of the dirty-set bookkeeping; callers using only the
        cheap rules (whose dirty marks are complete) may skip it.

        The sweep is skipped when the graph has not changed since every alive
        vertex was last marked dirty for every rule, which holds for a fresh
        reducer and after a sweep in which no rule fired: every rule has then
        already checked every vertex against the current graph, so the sweep
        could not fire either. On a graph no rule reduces this halves the time.
        """
        while True:
            pos = 0
            while pos < len(rule_indices):
                if deadline is not None and time.monotonic() >= deadline:
                    return
                if self._run_one_rule(rule_indices[pos], deadline):
                    pos = 0
                else:
                    pos += 1
            if not verify or not self._changed:
                return
            # Verification sweep: mark every alive vertex dirty for every rule
            # and re-examine everything once.
            self._mark([v for v, a in enumerate(self.alive) if a])
            self._changed = False
            for r in rule_indices:
                if deadline is not None and time.monotonic() >= deadline:
                    return
                if self._run_one_rule(r, deadline):
                    break
            if not self._changed:
                return

    def _run_one_rule(self, r: int, deadline: float | None) -> bool:
        rule = self._RULES[r]
        dirty = self._dirty[r]
        applied = False
        checked = 0
        while dirty:
            batch = sorted(dirty)
            dirty.clear()
            for v in batch:
                if not self.alive[v]:
                    continue
                if rule(self, v):
                    applied = True
                checked += 1
                if deadline is not None and checked % 256 == 0 and time.monotonic() >= deadline:
                    return applied
        return applied

    def kernel(self) -> Kernel:
        keep = [v for v in range(len(self.alive)) if self.alive[v]]
        index = {v: i for i, v in enumerate(keep)}
        adjacency = [sorted(index[u] for u in self.adj[v]) for v in keep]
        weights = [self.weight[v] for v in keep]
        m = sum(len(a) for a in adjacency) // 2
        return Kernel(
            graph=Graph(len(keep), adjacency, weights, m),
            offset=self.offset,
            trace=self.trace,
            orig_map=keep,
            source_n=self.source_n,
        )


def reference_reduction_construction(g: Graph) -> list[int]:
    """Quadratic reference for `reduction_construction`: after the cheap rules
    stall, rescan every alive vertex for the largest weight - nbw gap (ties
    go to the smallest id) and take it."""
    red = ReferenceReducer(g)
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


def reference_greedy_construction(g: Graph) -> list[int]:
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
    chosen: list[int] = []
    while heap:
        _, v, deg_at_push = heapq.heappop(heap)
        if not alive[v] or deg_at_push != degree[v]:
            continue
        chosen.append(v)
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
    red = ReferenceReducer(g)
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
