"""Iterated descent: module-A refinement alternating with score-guided
perturbation under a stagnation budget."""

from __future__ import annotations

import math
import random
import time

from .exchange import run_module_a
from .perturb import pick_strategy, perturb_solution, sample_insertion_count
from .state import Incumbent, SolutionState

M1 = 100  # stagnation interval that escalates the perturbation floor
M2 = 3000  # stagnation budget in global mode (depth -1)
BASE_CAP = 8  # ceiling of the perturbation floor


def adaptive_descent(
    state: SolutionState,
    inc: Incumbent,
    depth: int,
    rng: random.Random,
    deadline: float = math.inf,
) -> bool:
    """Refine the working solution until `depth` consecutive rounds bring no
    new best (depth -1 means the global budget M2).

    Each round runs the cheap exchange module, offers the result to `inc`,
    then perturbs. The perturbation floor grows by one every M1 stagnant
    rounds (capped at BASE_CAP) and resets on improvement. Returns whether
    `inc` improved.
    """
    if depth != -1 and depth < 1:
        raise ValueError("depth must be -1 or >= 1")
    budget = M2 if depth < 0 else depth
    state.uiter = 0
    base_num = 1
    start = inc.weight
    while time.monotonic() < deadline:
        run_module_a(state, deadline)
        improved = inc.offer(state)
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
    return inc.weight > start
