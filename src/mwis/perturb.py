"""Score-guided forced insertions used to escape local optima.

Each perturbation step samples a bounded number of non-solution vertices,
keeps the best one under the active scoring strategy, and forces it into the
solution, evicting its solution neighbors. Four strategies are available;
which one runs is drawn uniformly per perturbation.
"""

from __future__ import annotations

import random
from enum import Enum

from .state import SolutionState


class ScoreStrategy(Enum):
    """Vertex scores and their preferred direction."""

    FREQ = "freq"  # fewest visits wins: steer toward unexplored vertices
    AGE = "age"  # longest untouched wins: shake up stale structure
    CHANGE = "change"  # largest add/remove surplus wins: recall useful vertices
    LOSS = "loss"  # smallest eviction cost wins: cheap or profitable moves


STRATEGIES: tuple[ScoreStrategy, ...] = tuple(ScoreStrategy)

BMS_T = 50  # candidates sampled per forced insertion


def sample_insertion_count(floor: int, rng: random.Random) -> int:
    """floor plus a geometric bonus: the bonus is i+1 with probability 2^-i.

    Counting fair-coin successes gives exactly that law; the expected total
    is floor + 3 and the minimum floor + 2.
    """
    i = 1
    while rng.random() < 0.5:
        i += 1
    return floor + i + 1


def pick_strategy(rng: random.Random) -> ScoreStrategy:
    """Uniform draw from the four scoring strategies."""
    return STRATEGIES[rng.randrange(len(STRATEGIES))]


def _score_key(state: SolutionState, strategy: ScoreStrategy):
    """Sort key minimized by the preferred vertex; ties fall to the lowest id."""
    if strategy is ScoreStrategy.FREQ:
        freq = state.freq
        return lambda v: (freq[v], v)
    if strategy is ScoreStrategy.AGE:
        return lambda v: (-state.age(v), v)
    if strategy is ScoreStrategy.CHANGE:
        change = state.change
        return lambda v: (-change[v], v)
    return lambda v: (state.loss(v), v)


def sample_non_solution(state: SolutionState, k: int, rng: random.Random) -> list[int]:
    """min(k, n - |S|) distinct non-solution vertices, drawn uniformly.

    While non-solution vertices are at least half the graph, uniform vertex
    draws that hit the solution or repeat are rejected: about k * n / (n - |S|)
    <= 2k draws when k is small against the complement. Otherwise, or when at
    most k remain, one O(n) scan lists the complement to sample from, the cost
    of the omega pass that every search round runs in module A.
    """
    n = state.g.n
    cs = state.cs
    rest = n - len(cs)
    if rest <= k or 2 * rest < n:
        outside = [v for v in range(n) if v not in cs]
        return outside if rest <= k else rng.sample(outside, k)
    picked: set[int] = set()
    draw = rng.random
    while len(picked) < k:
        v = int(draw() * n)
        if v not in cs:
            picked.add(v)
    return list(picked)


def perturb_solution(
    state: SolutionState,
    strategy: ScoreStrategy,
    num: int,
    rng: random.Random,
) -> None:
    """Force `num` vertices into the solution, then re-maximize.

    Every insertion picks the best under `strategy` of min(BMS_T, n - |S|)
    distinct non-solution vertices drawn by `sample_non_solution`. A vertex is
    forced at most once per call; when no fresh candidate exists the pass ends
    early. A solution covering the whole graph is left untouched.
    """
    key = _score_key(state, strategy)
    forced: set[int] = set()
    for _ in range(num):
        candidates = [v for v in sample_non_solution(state, BMS_T, rng) if v not in forced]
        if not candidates:
            break
        v = min(candidates, key=key)
        forced.add(v)
        state.insert_with_removal(v)
    state.maximize()
