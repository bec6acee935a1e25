"""Region search: carve out a ball around a rarely visited solution vertex,
re-solve it in isolation, and splice improvements back into the global solution.

The carved subgraph drops boundary vertices that touch solution vertices just
outside the ball, which makes any independent set of the subgraph compatible
with the solution outside it (splice safety).
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Container
from dataclasses import dataclass

from .descent import adaptive_descent
from .graph import Graph, induced_subgraph
from .state import Incumbent, SolutionState


@dataclass
class LocalGraph:
    graph: Graph
    to_global: list[int]
    radius: int
    solu1: list[int]  # local ids of global-solution members inside the region


def build_local_graph(
    g: Graph, cs: Container[int], center: int, radius: int, max_size: int | None = None
) -> LocalGraph:
    """Region of BFS radius `radius` around `center`, excluding boundary
    vertices adjacent to solution vertices one level further out.

    BFS exhaustion caps the radius at the component naturally; with max_size,
    radius growth stops at the last level that kept the ball within bounds
    (never below 1).
    """
    if not 0 <= center < g.n:
        raise ValueError(f"vertex {center} out of range [0, {g.n})")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    adj = g.adjacency
    seen = {center}
    frontier = [center]
    depth = 0
    while frontier and depth <= radius:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        depth += 1
        if max_size is not None and depth <= radius and len(seen) > max_size:
            # The level just built becomes the exclusion boundary.
            radius = max(1, depth - 1)

    # `frontier` is now level radius + 1, or empty once BFS is exhausted.
    drop = set(frontier)
    for w in frontier:
        if w in cs:
            drop.update(adj[w])
    members = seen - drop

    sub, old_to_new, new_to_old = induced_subgraph(g, members)
    return LocalGraph(
        graph=sub,
        to_global=new_to_old,
        radius=radius,
        solu1=[old_to_new[u] for u in new_to_old if u in cs],
    )


def _greedy_by_weight(g: Graph) -> set[int]:
    """The maximal independent set that `SolutionState.maximize` builds from
    an empty solution: heaviest free vertex first, ties by id."""
    state = SolutionState(g)
    state.maximize()
    return state.cs


def region_search(
    state: SolutionState,
    inc: Incumbent,
    radius_base: int,
    search_depth: int,
    rng: random.Random,
    deadline: float = math.inf,
    on_improve=None,
    stats_out: dict | None = None,
) -> bool:
    """Run bounded descents inside regions centered on the least-visited
    solution vertices, splicing every strict improvement into the working
    solution and offering it to `inc`. Expects the working solution to equal
    `inc.best`.

    Examines one budget segment of centers (a hundredth of the solution, at
    least one); each fully fruitless segment extends the budget by another
    segment. A center that an earlier splice removed from the solution is
    skipped and not counted. `on_improve(weight)` hears the new weight once
    per splice, after `inc` has banked it; it is kept apart from
    `inc.on_improve` so that a caller can count splices alone. `stats_out`
    receives the number of centers examined and the final budget. Returns
    whether any splice happened.
    """
    g = state.g
    spliced = False
    pool = list(state.cs)
    freq = state.freq
    budget = max(1, len(state.cs) // 100)
    c = 0
    radius = max(1, radius_base)
    size_cap = max(10_000, g.n // 5)

    while c <= min(len(state.cs), budget) and pool and time.monotonic() < deadline:
        center = min(pool, key=lambda v: (freq[v], v))
        pool.remove(center)
        if center not in state.cs:
            continue  # an earlier splice removed it from the solution
        c += 1
        region = build_local_graph(g, state.cs, center, radius, max_size=size_cap)
        local_state = SolutionState(region.graph, _greedy_by_weight(region.graph))
        local = Incumbent(region.graph, region.solu1)
        if adaptive_descent(local_state, local, search_depth, rng, deadline):
            old_global = {region.to_global[u] for u in region.solu1}
            new_global = {region.to_global[u] for u in local.best}
            for u in sorted(old_global - new_global):
                state.remove_vertex(u)
            for u in sorted(new_global - old_global):
                state.add_vertex(u)
            inc.offer(state)
            spliced = True
            if on_improve is not None:
                on_improve(state.cs_weight)
        if not spliced and c == budget:
            budget += max(1, len(state.cs) // 100)

    if stats_out is not None:
        stats_out.update(centers=c, final_budget=budget)
    return spliced
