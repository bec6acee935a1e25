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


def sample_insertion_count(base_num: int, rng: random.Random) -> int:
    """base_num plus a geometric bonus: the bonus is i+1 with probability 2^-i.

    Counting fair-coin successes gives exactly that law; the expected total
    is base_num + 3 and the minimum base_num + 2.
    """
    i = 1
    while rng.random() < 0.5:
        i += 1
    return base_num + i + 1


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


def perturb_solution(
    state: SolutionState,
    strategy: ScoreStrategy,
    num: int,
    rng: random.Random,
) -> None:
    """Force `num` vertices into the solution, then re-maximize.

    Every insertion picks the best of min(BMS_T, pool) uniformly sampled
    non-solution vertices under `strategy`. A vertex is forced at most once
    per call; when no fresh candidate exists the pass ends early. A solution
    covering the whole graph is left untouched.
    """
    key = _score_key(state, strategy)
    forced: set[int] = set()
    for _ in range(num):
        candidates = [v for v in state.non_cs.sample(rng, BMS_T) if v not in forced]
        if not candidates:
            break
        v = min(candidates, key=key)
        forced.add(v)
        state.insert_with_removal(v)
    state.maximize()
