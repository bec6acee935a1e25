"""Iterated descent: module-A refinement alternating with score-guided
perturbation under a stagnation budget."""

from __future__ import annotations

import math
import random
import time

from .exchange import run_module_a
from .perturb import pick_strategy, perturb_solution, sample_insertion_count
from .state import Incumbent, SolutionState

M2 = 3000  # stagnation budget in global mode (depth -1)


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
    then perturbs with the lowest insertion floor, as the composite loop
    does. Returns whether `inc` improved.
    """
    if depth != -1 and depth < 1:
        raise ValueError("depth must be -1 or >= 1")
    budget = M2 if depth < 0 else depth
    state.uiter = 0
    start = inc.weight
    while time.monotonic() < deadline:
        run_module_a(state, deadline)
        improved = inc.offer(state)
        if not improved and state.uiter >= budget:
            break
        strategy = pick_strategy(rng)
        num = sample_insertion_count(1, rng)
        perturb_solution(state, strategy, num, rng)
        state.tick(improved)
    return inc.weight > start
