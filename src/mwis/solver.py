"""Top-level solve loop: kernelize, construct, then search until the deadline.

Dense graphs (small density radius) run the reward-guided composite loop;
sparse ones alternate global descent, region search, and composite recovery.
A single seeded generator drives every stochastic choice in program order, so
identical configurations replay identically.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .construct import DENSE_RADIUS, build_initial_solution, density_radius
from .descent import adaptive_descent
from .exchange import composite_search, composite_search_loop
from .graph import Graph
from .reduction import lift_solution, reduce_graph
from .region import region_search
from .state import Incumbent, SolutionState

SEARCH_DEPTH = 100  # stagnation budget of each region descent
REDUCE_CAP = 200.0  # seconds kernelization may run, at most time_limit


@dataclass
class SolverConfig:
    time_limit: float = 1000.0
    seed: int = 1
    no_reduce: bool = False

    def __post_init__(self):
        # A negated comparison so that NaN fails it too.
        if not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be positive and finite")


@dataclass
class SolveResult:
    best_set: tuple[int, ...]  # vertices of the original graph, ascending
    best_weight: int
    time_to_best: float
    iterations: int
    trace: list[tuple[float, int]] = field(default_factory=list)
    kernel_n: int = 0
    kernel_m: int = 0
    elapsed: float = 0.0


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Best independent set found within cfg.time_limit seconds.

    The returned set lives on the original graph; its independence and weight
    are re-verified before returning. The improvement trace records
    (elapsed seconds, weight) at each strict improvement of the best solution.
    """
    if cfg is None:
        cfg = SolverConfig()
    start = time.monotonic()
    deadline = start + cfg.time_limit
    rng = random.Random(cfg.seed)

    kernel = reduce_graph(g, 0.0 if cfg.no_reduce else min(REDUCE_CAP, cfg.time_limit))
    kg = kernel.graph

    trace: list[tuple[float, int]] = []

    def note(kernel_weight: int) -> None:
        trace.append((time.monotonic() - start, kernel_weight + kernel.offset))

    inc = Incumbent(kg, (), note)
    iterations = 0
    if kg.n == 0:
        note(0)
    else:
        radius = density_radius(kg)
        state = SolutionState(kg, build_initial_solution(kg, radius))
        state.maximize()
        inc.offer(state)
        if radius <= DENSE_RADIUS:
            composite_search_loop(state, inc, rng, deadline)
        else:
            while time.monotonic() < deadline:
                adaptive_descent(state, inc, -1, rng, deadline)
                state.reset_solution(inc.best)
                if not region_search(state, inc, radius, SEARCH_DEPTH, rng, deadline):
                    composite_search(state, inc, rng, deadline)
                    state.reset_solution(inc.best)
        iterations = state.iter

        # A deadline can interrupt mid-pass; make sure the answer is maximal.
        state.reset_solution(inc.best)
        state.maximize()
        inc.offer(state)

    members = lift_solution(kernel, inc.best)
    if not g.is_independent(members):
        raise RuntimeError("internal error: lifted solution is not independent")
    weight = g.set_weight(members)
    if weight != kg.set_weight(inc.best) + kernel.offset:
        raise RuntimeError("internal error: lifted weight does not match kernel weight")
    elapsed = time.monotonic() - start
    return SolveResult(
        best_set=tuple(members),
        best_weight=weight,
        time_to_best=trace[-1][0],
        iterations=iterations,
        trace=trace,
        kernel_n=kg.n,
        kernel_m=kg.m,
        elapsed=elapsed,
    )
