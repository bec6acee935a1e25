"""Top-level solve loop: kernelize, construct, then search until the deadline.

Dense graphs (small density radius) run the reward-guided composite loop;
sparse ones alternate global descent, region search, and composite recovery.
A single seeded generator drives every stochastic choice in program order, so
identical configurations replay identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .construct import build_initial_solution, density_radius
from .descent import adaptive_descent
from .exchange import composite_search, composite_search_loop
from .graph import Graph
from .reduction import Kernel, identity_kernel, lift_solution, reduce_graph
from .region import region_search
from .state import SolutionState

SEARCH_DEPTH = 100  # stagnation budget of each region descent


@dataclass
class SolverConfig:
    time_limit: float = 1000.0
    seed: int = 1
    reduce_cap: float = 200.0
    no_reduce: bool = False

    def __post_init__(self):
        # Negated comparisons so that NaN fails them too.
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if not self.reduce_cap >= 0:
            raise ValueError("reduce_cap must be non-negative")


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

    if cfg.no_reduce or g.n == 0:
        kernel = identity_kernel(g)
    else:
        kernel = reduce_graph(g, min(cfg.reduce_cap, cfg.time_limit))
    kg = kernel.graph

    trace: list[tuple[float, int]] = []

    def note(kernel_weight: int) -> None:
        total = kernel_weight + kernel.offset
        if not trace or total > trace[-1][1]:
            trace.append((time.monotonic() - start, total))

    iterations = 0
    if kg.n == 0:
        best_kernel: dict[int, None] = {}
        note(0)
    else:
        radius = density_radius(kg)
        state = SolutionState(kg, build_initial_solution(kg, radius))
        state.maximize()
        best = state.cs.copy()
        note(state.cs_weight)
        if radius <= 2:
            best = composite_search_loop(state, best, deadline, rng, note)
        else:
            while time.monotonic() < deadline:
                best = adaptive_descent(state, best, -1, rng, deadline, note)
                state.reset_solution(best)
                best, improved_here = region_search(
                    state, best, radius, SEARCH_DEPTH, rng, deadline, note
                )
                if not improved_here:
                    best = composite_search(state, best, rng, deadline, note)
                    state.reset_solution(best)
        iterations = state.iter

        # A deadline can interrupt mid-pass; make sure the answer is maximal.
        polish = SolutionState(kg, best)
        if polish.maximize() > 0:
            best = polish.cs.copy()
            note(polish.cs_weight)
        best_kernel = best

    members = lift_solution(kernel, best_kernel)
    if not g.is_independent(members):
        raise RuntimeError("internal error: lifted solution is not independent")
    weight = g.set_weight(members)
    if weight != kg.set_weight(best_kernel) + kernel.offset:
        raise RuntimeError("internal error: lifted weight does not match kernel weight")
    elapsed = time.monotonic() - start
    return SolveResult(
        best_set=tuple(members),
        best_weight=weight,
        time_to_best=trace[-1][0] if trace else elapsed,
        iterations=iterations,
        trace=trace,
        kernel_n=kg.n,
        kernel_m=kg.m,
        elapsed=elapsed,
    )
