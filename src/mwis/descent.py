"""Iterated descent: module-A refinement alternating with score-guided
perturbation under a stagnation budget."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .exchange import run_module_a
from .graph import VertexSet
from .perturb import PerturbConfig, pick_strategy, perturb_solution, sample_insertion_count
from .state import SolutionState


@dataclass
class DescentConfig:
    m1: int = 100  # stagnation interval that escalates the perturbation floor
    m2: int = 3000  # stagnation budget in global mode (depth -1)
    bms_t: int = 50
    base_cap: int = 8

    def __post_init__(self):
        if self.m1 < 1:
            raise ValueError("m1 must be >= 1")
        if self.m2 < self.m1:
            raise ValueError("m2 must be >= m1")


def adaptive_descent(
    state: SolutionState,
    best: VertexSet,
    depth: int,
    cfg: DescentConfig,
    rng: random.Random,
    deadline: float | None = None,
    on_improve=None,
) -> VertexSet:
    """Refine the working solution until `depth` consecutive rounds bring no
    new best (depth -1 means the global budget cfg.m2).

    Each round runs the cheap exchange module, banks any new best, then
    perturbs. The perturbation floor grows by one every cfg.m1 stagnant
    rounds (capped) and resets on improvement. Returns the best set seen,
    never worse than the one passed in.
    """
    if depth != -1 and depth < 1:
        raise ValueError("depth must be -1 or >= 1")
    g = state.g
    best = best.copy()
    best_w = g.set_weight(best)
    budget = cfg.m2 if depth < 0 else depth
    state.uiter = 0
    pcfg = PerturbConfig(base_num=1, bms_t=cfg.bms_t)
    while True:
        if deadline is not None and time.monotonic() >= deadline:
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
            pcfg.base_num = 1
        elif state.uiter > 0 and state.uiter % cfg.m1 == 0:
            pcfg.base_num = min(pcfg.base_num + 1, cfg.base_cap)
        strategy = pick_strategy(rng)
        num = sample_insertion_count(pcfg, rng)
        perturb_solution(state, strategy, num, pcfg, rng)
        state.tick(improved)
    return best
