"""Iterated descent: module-A refinement alternating with score-guided
perturbation under a stagnation budget."""

from __future__ import annotations

import math
import random
import time
from collections.abc import Collection

from .exchange import run_module_a
from .perturb import pick_strategy, perturb_solution, sample_insertion_count
from .state import SolutionState

M1 = 100  # stagnation interval that escalates the perturbation floor
M2 = 3000  # stagnation budget in global mode (depth -1)
BASE_CAP = 8  # ceiling of the perturbation floor


def adaptive_descent(
    state: SolutionState,
    best: Collection[int],
    depth: int,
    rng: random.Random,
    deadline: float = math.inf,
    on_improve=None,
) -> dict[int, None]:
    """Refine the working solution until `depth` consecutive rounds bring no
    new best (depth -1 means the global budget M2).

    Each round runs the cheap exchange module, banks any new best, then
    perturbs. The perturbation floor grows by one every M1 stagnant rounds
    (capped at BASE_CAP) and resets on improvement. Returns the best set seen,
    never worse than the one passed in, as a new insertion-ordered dict.
    """
    if depth != -1 and depth < 1:
        raise ValueError("depth must be -1 or >= 1")
    g = state.g
    best = dict.fromkeys(best)
    best_w = g.set_weight(best)
    budget = M2 if depth < 0 else depth
    state.uiter = 0
    base_num = 1
    while True:
        if time.monotonic() >= deadline:
            break
        run_module_a(state, deadline)
        improved = state.cs_weight > best_w
        if improved:
            best = state.cs.copy()
            best_w = state.cs_weight
            if on_improve is not None:
                on_improve(best_w)
        if not improved and state.uiter >= budget:
            break
        if improved:
            base_num = 1
        elif state.uiter > 0 and state.uiter % M1 == 0:
            base_num = min(base_num + 1, BASE_CAP)
        strategy = pick_strategy(rng)
        num = sample_insertion_count(base_num, rng)
        perturb_solution(state, strategy, num, rng)
        state.tick(improved)
    return best
