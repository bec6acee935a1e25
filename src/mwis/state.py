"""Mutable search state: the working solution and its incremental statistics."""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .graph import Graph


class _SamplePool:
    """Indexable set over 0..n-1 with O(1) add/remove and uniform sampling."""

    __slots__ = ("_items", "_pos")

    def __init__(self, n: int, members: Iterable[int]):
        self._items: list[int] = []
        self._pos: list[int] = [-1] * n
        for v in members:
            self.add(v)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, v: int) -> bool:
        return self._pos[v] >= 0

    def add(self, v: int) -> None:
        if self._pos[v] < 0:
            self._pos[v] = len(self._items)
            self._items.append(v)

    def discard(self, v: int) -> None:
        i = self._pos[v]
        if i < 0:
            return
        last = self._items.pop()
        if last != v:
            self._items[i] = last
            self._pos[last] = i
        self._pos[v] = -1

    def sample(self, rng, k: int) -> list[int]:
        if k >= len(self._items):
            return list(self._items)
        return rng.sample(self._items, k)


class SolutionState:
    """Working independent set over a fixed graph with incremental tightness,
    loss and free-vertex maintenance plus the per-vertex search statistics
    (visit frequency, age, add/remove balance).

    One state belongs to one search context; it is never shared concurrently.
    """

    def __init__(self, g: Graph, initial: Iterable[int] = ()):
        members = list(initial)
        if not g.is_independent(members):
            raise ValueError("initial solution is not an independent set")
        self.g = g
        self.freq = [0] * g.n
        self.change = [0] * g.n
        self.last_visit = [0] * g.n
        self.iter = 0
        self.uiter = 0
        self._rebuild(members)

    def _rebuild(self, members: list[int]) -> None:
        """Set the solution to `members` (already checked independent) and
        recompute its weight, tightness, neighbor weights and vertex pools."""
        g = self.g
        # Insertion-ordered: copies of it come back as `members` through
        # reset_solution(best), and members leave the swap-remove sampling
        # pool in their order, which fixes what its seeded draws return.
        self.cs: dict[int, None] = dict.fromkeys(members)
        self.cs_weight = g.set_weight(self.cs)
        self.tightness = [0] * g.n
        # Weight of solution neighbors; loss(v) = nb_weight[v] - weight[v].
        self.nb_weight = [0] * g.n
        self.non_cs = _SamplePool(g.n, range(g.n))
        for v in self.cs:
            self.non_cs.discard(v)
            wv = g.weights[v]
            for u in g.adjacency[v]:
                self.tightness[u] += 1
                self.nb_weight[u] += wv
        # Order-free: only probed, sized, and heapified under unique keys.
        self.free = {v for v in range(g.n) if v not in self.cs and self.tightness[v] == 0}

    # -- derived quantities --------------------------------------------------

    def loss(self, v: int) -> int:
        return self.nb_weight[v] - self.g.weights[v]

    def age(self, v: int) -> int:
        return self.iter - self.last_visit[v]

    def _visit(self, v: int, delta: int) -> None:
        self.freq[v] += 1
        self.change[v] += delta
        self.last_visit[v] = self.iter

    # -- solution mutations ----------------------------------------------------

    def add_vertex(self, v: int) -> None:
        """Add a free vertex to the solution."""
        if v in self.cs:
            raise ValueError(f"vertex {v} already in the solution")
        if self.tightness[v] != 0:
            raise ValueError(f"vertex {v} is not free (tightness {self.tightness[v]})")
        g = self.g
        self.cs[v] = None
        self.cs_weight += g.weights[v]
        self.non_cs.discard(v)
        self.free.discard(v)
        wv = g.weights[v]
        for u in g.adjacency[v]:
            self.tightness[u] += 1
            self.nb_weight[u] += wv
            if self.tightness[u] == 1:
                self.free.discard(u)
        self._visit(v, +1)

    def remove_vertex(self, v: int) -> None:
        if v not in self.cs:
            raise ValueError(f"vertex {v} not in the solution")
        g = self.g
        del self.cs[v]
        self.cs_weight -= g.weights[v]
        self.non_cs.add(v)
        wv = g.weights[v]
        for u in g.adjacency[v]:
            self.tightness[u] -= 1
            self.nb_weight[u] -= wv
            if self.tightness[u] == 0 and u not in self.cs:
                self.free.add(u)
        if self.tightness[v] == 0:
            self.free.add(v)
        self._visit(v, -1)

    def insert_with_removal(self, v: int) -> list[int]:
        """Force v into the solution, evicting its solution neighbors.

        Returns the evicted vertices in adjacency order. The net weight change
        equals the negated loss of v evaluated before the call.
        """
        cs = self.cs
        if v in cs:
            raise ValueError(f"vertex {v} already in the solution")
        removed = [u for u in self.g.adjacency[v] if u in cs]
        for u in removed:
            self.remove_vertex(u)
        self.add_vertex(v)
        return removed

    def maximize(self) -> int:
        """Add free vertices in descending weight order (ties by ascending id)
        until none remain. Returns how many were added."""
        if not self.free:
            return 0
        weights = self.g.weights
        heap = [(-weights[v], v) for v in self.free]
        heapq.heapify(heap)
        added = 0
        while heap:
            _, v = heapq.heappop(heap)
            if v in self.free:
                self.add_vertex(v)
                added += 1
        return added

    def tick(self, improved: bool) -> None:
        """Close an iteration: ages advance implicitly, stagnation counter updates."""
        self.iter += 1
        self.uiter = 0 if improved else self.uiter + 1

    def reset_solution(self, new_solution: Iterable[int]) -> None:
        """Replace the working solution wholesale, keeping the search statistics."""
        members = list(new_solution)
        if not self.g.is_independent(members):
            raise ValueError("replacement solution is not an independent set")
        self._rebuild(members)

    # -- validation --------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute every derived field from the solution and compare. Test hook."""
        g = self.g
        members = set(self.cs)
        if not g.is_independent(members):
            raise AssertionError("solution is not independent")
        if self.cs_weight != sum(g.weights[v] for v in members):
            raise AssertionError("solution weight out of sync")
        for v in range(g.n):
            t = sum(1 for u in g.adjacency[v] if u in members)
            w = sum(g.weights[u] for u in g.adjacency[v] if u in members)
            if self.tightness[v] != t:
                raise AssertionError(f"tightness of {v} out of sync")
            if self.nb_weight[v] != w:
                raise AssertionError(f"neighbor weight of {v} out of sync")
            should_be_free = v not in members and t == 0
            if (v in self.free) != should_be_free:
                raise AssertionError(f"free pool wrong for {v}")
            if (v in self.non_cs) != (v not in members):
                raise AssertionError(f"complement pool wrong for {v}")
