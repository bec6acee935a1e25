"""Mutable search state: the working solution and its incremental statistics,
and the incumbent that keeps the best solution a search has seen."""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .graph import Graph


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
        recompute its weight, tightness, neighbor weights and free vertices."""
        g = self.g
        self.cs = set(members)
        self.cs_weight = g.set_weight(self.cs)
        self.tightness = [0] * g.n
        # Weight of solution neighbors; loss(v) = nb_weight[v] - weight[v].
        self.nb_weight = [0] * g.n
        for v in self.cs:
            wv = g.weights[v]
            for u in g.adjacency[v]:
                self.tightness[u] += 1
                self.nb_weight[u] += wv
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
        self.cs.add(v)
        self.cs_weight += g.weights[v]
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
        self.cs.remove(v)
        self.cs_weight -= g.weights[v]
        wv = g.weights[v]
        for u in g.adjacency[v]:
            self.tightness[u] -= 1
            self.nb_weight[u] -= wv
            if self.tightness[u] == 0:
                self.free.add(u)
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
        members = self.cs
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


class Incumbent:
    """The best solution seen so far, shared by every search routine of a solve.

    `on_improve(weight)` hears every new best, at the moment it is banked.
    """

    __slots__ = ("best", "weight", "on_improve")

    def __init__(self, g: Graph, members: Iterable[int] = (), on_improve=None):
        self.best = set(members)
        self.weight = g.set_weight(self.best)
        self.on_improve = on_improve

    def offer(self, state: SolutionState) -> bool:
        """Bank a copy of the working solution if it is strictly heavier."""
        if state.cs_weight <= self.weight:
            return False
        self.best = state.cs.copy()
        self.weight = state.cs_weight
        if self.on_improve is not None:
            self.on_improve(self.weight)
        return True
