"""Vertex-exchange neighborhoods, their composition into descent modules, and
the reward-driven composite search.

All moves strictly increase the solution weight, so every descent terminates.
Module taxonomy:

  A   one-vertex insertion with eviction, 2-improvement, (1,1)-exchange;
      cheap, runs every round.
  EM  one-vertex insertion paired with an (x,y)-exchange for x in {1,2,3},
      y in {1,2}; picked by roulette over learned rewards.
  B   (2,3)-swap plus unbounded (x,0)-exchange; the expensive recovery
      neighborhoods, fired when an EM round yields nothing.
"""

from __future__ import annotations

import math
import random
import time
from enum import Enum
from itertools import combinations

from .perturb import pick_strategy, perturb_solution, sample_insertion_count
from .state import Incumbent, SolutionState

# (tightness-one count, tightness-two count) per exchange module.
EXCHANGE_MODULES: tuple[tuple[int, int], ...] = tuple(
    (x, y) for x in (1, 2, 3) for y in (1, 2)
)

# Candidate lists per exchange center are truncated to this many heaviest
# vertices before combinations are enumerated.
CANDIDATE_CAP = 16


def omega_one_pass(state: SolutionState) -> bool:
    """Insert the first non-solution vertex (ascending id) whose weight beats
    the combined weight of its solution neighbors."""
    weights = state.g.weights
    nb_weight = state.nb_weight
    cs = state.cs
    for v in range(state.g.n):
        if v in cs:
            continue
        if nb_weight[v] < weights[v]:
            state.insert_with_removal(v)
            return True
    return False


def two_improvement_pass(state: SolutionState) -> bool:
    """Replace one solution vertex with two heavier nonadjacent neighbors of
    tightness one. First improvement in ascending id order."""
    g = state.g
    weights = g.weights
    tightness = state.tightness
    for v in sorted(state.cs):
        wv = weights[v]
        cand = [u for u in g.adjacency[v] if u not in state.cs and tightness[u] == 1]
        if len(cand) < 2:
            continue
        for i in range(len(cand) - 1):
            a = cand[i]
            for j in range(i + 1, len(cand)):
                b = cand[j]
                if weights[a] + weights[b] > wv and not g.has_edge(a, b):
                    state.remove_vertex(v)
                    state.add_vertex(a)
                    state.add_vertex(b)
                    return True
    return False


def _solution_neighbors(state: SolutionState, v: int) -> list[int]:
    return [u for u in state.g.adjacency[v] if u in state.cs]


def _candidates(state: SolutionState, v: int, tau: int) -> list[int]:
    """Non-solution neighbors of v with the given tightness, heaviest first."""
    g = state.g
    tight = state.tightness
    out = [u for u in g.adjacency[v] if u not in state.cs and tight[u] == tau]
    out.sort(key=lambda u: (-g.weights[u], u))
    del out[CANDIDATE_CAP:]
    return out


def xy_exchange(state: SolutionState, v: int, x: int, y: int) -> bool:
    """Replace the solution neighbors of an independent S subset of N(v) that has
    exactly x tightness-one and y tightness-two members, when that strictly
    gains weight. First improving S in heaviest-first enumeration order."""
    if v not in state.cs:
        raise ValueError(f"vertex {v} not in the solution")
    g = state.g
    weights = g.weights
    ones = _candidates(state, v, 1)
    if len(ones) < x:
        return False
    twos = _candidates(state, v, 2)
    if len(twos) < y:
        return False
    # Optimistic bound: heaviest candidates against the guaranteed eviction of v.
    optimistic = sum(weights[u] for u in ones[:x]) + sum(weights[u] for u in twos[:y])
    if optimistic <= weights[v]:
        return False

    for cx in combinations(ones, x):
        if any(g.has_edge(a, b) for a, b in combinations(cx, 2)):
            continue
        for cy in combinations(twos, y):
            if any(g.has_edge(a, b) for a, b in combinations(cy, 2)):
                continue
            if any(g.has_edge(a, b) for a in cx for b in cy):
                continue
            removal = {v}
            for u in cy:
                removal.update(_solution_neighbors(state, u))
            gain = sum(weights[u] for u in cx) + sum(weights[u] for u in cy)
            gain -= sum(weights[u] for u in removal)
            if gain > 0:
                for u in sorted(removal):
                    state.remove_vertex(u)
                for u in cx:
                    state.add_vertex(u)
                for u in cy:
                    state.add_vertex(u)
                state.maximize()
                return True
    return False


def x0_exchange(state: SolutionState, v: int) -> bool:
    """Swap v for a greedy independent packing of its tightness-one neighbors
    when the packing outweighs v."""
    if v not in state.cs:
        raise ValueError(f"vertex {v} not in the solution")
    g = state.g
    ones = [u for u in g.adjacency[v] if u not in state.cs and state.tightness[u] == 1]
    ones.sort(key=lambda u: (-g.weights[u], u))
    chosen: list[int] = []
    for u in ones:
        if all(not g.has_edge(u, c) for c in chosen):
            chosen.append(u)
    if not chosen or g.set_weight(chosen) <= g.weights[v]:
        return False
    state.remove_vertex(v)
    for u in chosen:
        state.add_vertex(u)
    state.maximize()
    return True


def two_three_pass(state: SolutionState) -> bool:
    """Remove two solution vertices at distance two and add three vertices:
    their shared tightness-two neighbor plus one tightness-one neighbor of
    each, when the triple strictly outweighs the pair."""
    g = state.g
    weights = g.weights
    tight = state.tightness
    cs = state.cs
    for u in sorted(cs):
        for w in g.adjacency[u]:
            if w in cs or tight[w] != 2:
                continue
            v2 = next(c for c in g.adjacency[w] if c in cs and c != u)
            base = weights[u] + weights[v2]
            for a in g.adjacency[u]:
                if a in cs or tight[a] != 1 or a == w or g.has_edge(a, w):
                    continue
                for b in g.adjacency[v2]:
                    if b in cs or tight[b] != 1 or b == w or b == a:
                        continue
                    if weights[w] + weights[a] + weights[b] <= base:
                        continue
                    if g.has_edge(b, w) or g.has_edge(b, a):
                        continue
                    state.remove_vertex(u)
                    state.remove_vertex(v2)
                    state.add_vertex(w)
                    state.add_vertex(a)
                    state.add_vertex(b)
                    state.maximize()
                    return True
    return False


def _xy_pass(state: SolutionState, x: int, y: int) -> bool:
    for v in sorted(state.cs):
        if xy_exchange(state, v, x, y):
            return True
    return False


def _x0_pass(state: SolutionState) -> bool:
    for v in sorted(state.cs):
        if x0_exchange(state, v):
            return True
    return False


def _vnd(state: SolutionState, passes, deadline: float = math.inf) -> bool:
    """Variable neighborhood descent: any improvement restarts at the first
    neighborhood; the solution is re-maximized as each neighborhood completes."""
    start = state.cs_weight
    i = 0
    while i < len(passes):
        if time.monotonic() >= deadline:
            break
        if passes[i](state):
            i = 0
        else:
            state.maximize()
            i += 1
    return state.cs_weight > start


def run_module_a(state: SolutionState, deadline: float = math.inf) -> bool:
    return _vnd(
        state,
        (omega_one_pass, two_improvement_pass, lambda s: _xy_pass(s, 1, 1)),
        deadline,
    )


def run_module_b(state: SolutionState, deadline: float = math.inf) -> bool:
    return _vnd(state, (two_three_pass, _x0_pass), deadline)


def run_em_module(
    state: SolutionState, module: tuple[int, int], deadline: float = math.inf
) -> bool:
    x, y = module
    return _vnd(state, (omega_one_pass, lambda s: _xy_pass(s, x, y)), deadline)


class Outcome(Enum):
    NEW_BEST = 3
    IMPROVED_CURRENT = 2
    NONE = -1


class RewardTable:
    """Per-module rewards driving roulette selection of exchange modules."""

    __slots__ = ("re",)

    def __init__(self, size: int = len(EXCHANGE_MODULES)):
        self.re = [1] * size


def select_module(table: RewardTable, rng: random.Random) -> int:
    """Roulette-wheel draw: module i wins with probability re[i] / sum(re)."""
    total = sum(table.re)
    r = rng.random() * total
    acc = 0
    for i, value in enumerate(table.re):
        acc += value
        if r < acc:
            return i
    return len(table.re) - 1


def update_reward(table: RewardTable, module: int, outcome: Outcome) -> None:
    table.re[module] = max(1, table.re[module] + outcome.value)


def composite_search(
    state: SolutionState,
    inc: Incumbent,
    rng: random.Random,
    deadline: float = math.inf,
) -> bool:
    """Reward-guided rounds of module A, a roulette-picked EM module, and
    module B on stagnant rounds, offering the working solution to `inc` after
    each module. Ends once the net balance of EM outcomes falls back to 0
    after at least one full round. Returns whether `inc` improved."""
    start = inc.weight
    table = RewardTable()
    balance = 0
    while True:
        run_module_a(state, deadline)
        inc.offer(state)
        before = state.cs_weight
        module = select_module(table, rng)
        run_em_module(state, EXCHANGE_MODULES[module], deadline)
        if inc.offer(state):
            outcome = Outcome.NEW_BEST
        elif state.cs_weight > before:
            outcome = Outcome.IMPROVED_CURRENT
        else:
            outcome = Outcome.NONE
        update_reward(table, module, outcome)
        # A miss counts -1 here even at the reward floor (ROADMAP item 9).
        balance += outcome.value
        if outcome is Outcome.NONE:
            run_module_b(state, deadline)
            inc.offer(state)
        if balance <= 0 or time.monotonic() >= deadline:
            break
    return inc.weight > start


def composite_search_loop(
    state: SolutionState, inc: Incumbent, rng: random.Random, deadline: float
) -> None:
    """Drive composite_search until the deadline, perturbing the working
    solution after rounds that fail to improve `inc`."""
    while time.monotonic() < deadline:
        improved = composite_search(state, inc, rng, deadline)
        state.tick(improved)
        if not improved:
            strategy = pick_strategy(rng)
            num = sample_insertion_count(1, rng)  # floor fixed at its lowest value
            perturb_solution(state, strategy, num, rng)
