"""Exactness-preserving weighted reductions and solution lifting.

The reducer shrinks a graph into a kernel whose optimal weight differs from
the original by a fixed offset, recording enough bookkeeping to turn any
independent set of the kernel back into one of the original graph.

Rules, cheapest first:
  isolated      take a degree-zero vertex.
  degree_one    take v over its sole neighbor u when at least as heavy,
                otherwise charge v's weight to u and decide v later.
  neighborhood  take v when it outweighs its whole neighborhood.
  domination    drop v when an adjacent u covers v's neighborhood at no
                less weight.
  fold          contract a path u-v-w (u, w nonadjacent, v heaviest but
                lighter than u+w) into one vertex of weight u+w-v.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field

from .graph import Graph

RULE_NAMES = ("isolated", "degree_one", "neighborhood", "domination", "fold")


@dataclass
class Kernel:
    """Reduced graph plus the bookkeeping needed to lift solutions back."""

    graph: Graph
    offset: int
    trace: list[tuple] = field(default_factory=list)
    # kernel id -> working id; working ids >= source_n denote fold vertices
    orig_map: list[int] = field(default_factory=list)
    source_n: int = 0


class _Reducer:
    """Mutable working graph shared by the kernelizer and the construction pass.

    Adjacency is the input graph's own sorted lists, shared rather than
    copied. Deleted vertices stay in the lists and are skipped through
    `alive`; `deg` counts alive neighbors. A fold vertex's id exceeds every
    existing id, so appending it keeps each list sorted; the append goes to a
    copy of the list, so the input graph is never written.

    Each rule re-checks only its dirty vertices. `_delete` and `_new_vertex`
    mark the alive neighbors for every rule and their neighbors for
    domination, `_decrease_weight` marks the vertex and its alive neighbors,
    and a new vertex marks itself: every vertex whose rule outcome a mutation
    can change. So a pass in which no rule fires is a fixpoint.
    """

    def __init__(self, g: Graph):
        self.source_n = g.n
        self.adj: list[list[int]] = list(g.adjacency)
        self.deg: list[int] = [len(a) for a in g.adjacency]
        self.weight: list[int] = list(g.weights)
        self.alive: list[bool] = [True] * g.n
        self.alive_count = g.n
        # Sum of alive neighbor weights, kept incremental for O(1) rule checks.
        w = g.weights
        self.nbw: list[int] = [sum(map(w.__getitem__, a)) for a in g.adjacency]
        self.offset = 0
        self.trace: list[tuple] = []
        # Per rule: the vertices to re-check, unless `_all_dirty` says every
        # vertex is due. Marks are not collected while that flag is set.
        self._dirty: list[set[int]] = [set() for _ in RULE_NAMES]
        self._all_dirty: list[bool] = [True] * len(RULE_NAMES)

    def _alive_nbs(self, v: int) -> list[int]:
        alive = self.alive
        return [u for u in self.adj[v] if alive[u]]

    # -- mutation primitives ---------------------------------------------

    def _mark(self, vertices) -> None:
        for d, everything in zip(self._dirty, self._all_dirty):
            if not everything:
                d.update(vertices)

    def _mark_two_hop(self, nbs: list[int]) -> None:
        """Mark the neighbors of nbs for domination: once N[u] changes, u may
        dominate a neighbor it did not before."""
        if not self._all_dirty[3]:
            dom_dirty = self._dirty[3]
            for u in nbs:
                dom_dirty.update(self.adj[u])

    def _delete(self, v: int) -> None:
        self.alive[v] = False
        self.alive_count -= 1
        nbs = self._alive_nbs(v)
        wv = self.weight[v]
        deg, nbw = self.deg, self.nbw
        for u in nbs:
            deg[u] -= 1
            nbw[u] -= wv
        self._mark(nbs)
        self._mark_two_hop(nbs)

    def _decrease_weight(self, u: int, delta: int) -> None:
        self.weight[u] -= delta
        nbs = self._alive_nbs(u)
        for x in nbs:
            self.nbw[x] -= delta
        self._mark(nbs)
        self._mark((u,))

    def _new_vertex(self, w: int, nbs: list[int]) -> int:
        """Add a vertex of weight w adjacent to the sorted alive list nbs."""
        f = len(self.adj)
        self.adj.append(nbs)
        self.deg.append(len(nbs))
        self.weight.append(w)
        self.alive.append(True)
        self.alive_count += 1
        self.nbw.append(sum(map(self.weight.__getitem__, nbs)))
        self._mark((f,))
        for u in nbs:
            # A copy, never an in-place append: the list may be the input's.
            # Its cost matches the two-hop marking below.
            self.adj[u] = self.adj[u] + [f]
            self.deg[u] += 1
            self.nbw[u] += w
        self._mark(nbs)
        self._mark_two_hop(nbs)
        return f

    def take(self, v: int) -> None:
        """Commit v to every lifted solution and drop its closed neighborhood."""
        self.trace.append(("take", v))
        self.offset += self.weight[v]
        for u in self._alive_nbs(v):
            self._delete(u)
        self._delete(v)

    # -- rules -------------------------------------------------------------

    def _try_isolated(self, v: int) -> bool:
        if self.deg[v]:
            return False
        self.take(v)
        return True

    def _try_degree_one(self, v: int) -> bool:
        if self.deg[v] != 1:
            return False
        (u,) = self._alive_nbs(v)
        if self.weight[v] >= self.weight[u]:
            self.take(v)
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
        alive, weight, deg, adj = self.alive, self.weight, self.deg, self.adj
        wv, dv = weight[v], deg[v]
        candidates = [u for u in adj[v] if weight[u] >= wv and deg[u] <= dv and alive[u]]
        if not candidates:
            return False
        closed_v = set(adj[v])
        closed_v.add(v)
        for u in candidates:
            # Skip the filtering copy when every entry of u's list is alive.
            nbs_u = adj[u] if deg[u] == len(adj[u]) else self._alive_nbs(u)
            if closed_v.issuperset(nbs_u):
                self.trace.append(("drop", v))
                self._delete(v)
                return True
        return False

    def _try_fold(self, v: int) -> bool:
        if self.deg[v] != 2:
            return False
        u, w = self._alive_nbs(v)
        adj_u = self.adj[u]
        i = bisect_left(adj_u, w)
        if i < len(adj_u) and adj_u[i] == w:
            return False
        wv, wu, ww = self.weight[v], self.weight[u], self.weight[w]
        if wv < max(wu, ww) or wv >= wu + ww:
            return False
        self.offset += wv
        self._delete(v)
        self._delete(u)
        self._delete(w)
        merged = sorted(set(self._alive_nbs(u)).union(self._alive_nbs(w)))
        f = self._new_vertex(wu + ww - wv, merged)
        self.trace.append(("fold", f, u, v, w))
        return True

    _RULES = (_try_isolated, _try_degree_one, _try_neighborhood, _try_domination, _try_fold)

    # -- driver ------------------------------------------------------------

    def run_rules(self, rule_indices: tuple[int, ...], deadline: float = math.inf) -> None:
        """Apply the selected rules, cheapest first and back to the cheapest
        after any fires, until a pass over them fires none."""
        pos = 0
        while pos < len(rule_indices):
            if time.monotonic() >= deadline:
                return
            if self._run_one_rule(rule_indices[pos], deadline):
                pos = 0
            else:
                pos += 1

    def _run_one_rule(self, r: int, deadline: float) -> bool:
        rule = self._RULES[r]
        dirty = self._dirty[r]
        alive = self.alive
        applied = False
        checked = 0
        while dirty or self._all_dirty[r]:
            if self._all_dirty[r]:
                self._all_dirty[r] = False
                batch = range(len(self.adj))  # every vertex, ascending
            else:
                batch = sorted(dirty)
            dirty.clear()
            for v in batch:
                if not alive[v]:
                    continue
                if rule(self, v):
                    applied = True
                checked += 1
                if checked % 256 == 0 and time.monotonic() >= deadline:
                    return applied
        return applied

    def kernel(self) -> Kernel:
        alive = self.alive
        keep = [v for v, a in enumerate(alive) if a]
        index = {v: i for i, v in enumerate(keep)}
        adjacency = [[index[u] for u in self.adj[v] if alive[u]] for v in keep]
        weights = [self.weight[v] for v in keep]
        m = sum(len(a) for a in adjacency) // 2
        return Kernel(
            graph=Graph(len(keep), adjacency, weights, m),
            offset=self.offset,
            trace=self.trace,
            orig_map=keep,
            source_n=self.source_n,
        )


def reduce_graph(g: Graph, time_cap: float = 200.0) -> Kernel:
    """Kernelize g with all five rules, stopping at fixpoint or after time_cap seconds."""
    if not time_cap > 0:
        return identity_kernel(g)
    red = _Reducer(g)
    red.run_rules((0, 1, 2, 3, 4), time.monotonic() + time_cap)
    if not red.trace:
        return identity_kernel(g)  # nothing reduced: share g instead of copying it
    return red.kernel()


def identity_kernel(g: Graph) -> Kernel:
    """Kernel representing "no reduction applied"."""
    return Kernel(graph=g, offset=0, trace=[], orig_map=list(range(g.n)), source_n=g.n)


def resolve_trace(trace: list[tuple], members: set[int], source_n: int) -> list[int]:
    """Replay a reduction trace in reverse, expanding `members` (working ids)
    into an independent set of the original graph, in ascending order."""
    s = set(members)
    for entry in reversed(trace):
        kind = entry[0]
        if kind == "take":
            s.add(entry[1])
        elif kind == "defer":
            _, v, u = entry
            if u not in s:
                s.add(v)
        elif kind == "fold":
            _, f, u, v, w = entry
            if f in s:
                s.remove(f)
                s.add(u)
                s.add(w)
            else:
                s.add(v)
        # "drop" entries need no action: the vertex simply stays out.
    for v in s:
        if v >= source_n:
            raise RuntimeError(f"unresolved fold vertex {v} survived trace replay")
    return sorted(s)


def lift_solution(kernel: Kernel, kernel_solution: Iterable[int]) -> list[int]:
    """Map an independent set of the kernel to one of the original graph,
    returned in ascending order.

    The lifted set's weight in the original graph equals the kernel solution
    weight plus the kernel offset. Raises ValueError if the input is not an
    independent set of the kernel.
    """
    members = list(kernel_solution)
    for v in members:
        if not 0 <= v < kernel.graph.n:
            raise ValueError(f"vertex {v} is not a kernel vertex")
    if not kernel.graph.is_independent(members):
        raise ValueError("kernel solution is not independent in the kernel")
    working = {kernel.orig_map[v] for v in members}
    return resolve_trace(kernel.trace, working, kernel.source_n)
