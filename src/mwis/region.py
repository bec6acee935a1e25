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
from .state import SolutionState


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
    dist = {center: 0}
    levels: list[list[int]] = [[center]]
    depth = 0
    effective = radius
    count = 1
    while depth < effective + 1:
        frontier = levels[depth]
        if not frontier:
            break
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = depth + 1
                    nxt.append(w)
        levels.append(nxt)
        depth += 1
        if max_size is not None and depth <= effective:
            count += len(nxt)
            if count > max_size:
                if depth >= 2:
                    # Keep the just-built level as the exclusion boundary.
                    effective = depth - 1
                    break
                effective = 1

    boundary_next = levels[effective + 1] if len(levels) > effective + 1 else []
    outside_solution = {w for w in boundary_next if w in cs}
    members: list[int] = []
    for lvl in range(min(effective, len(levels) - 1) + 1):
        if lvl == effective and outside_solution:
            for u in levels[lvl]:
                if not any(w in outside_solution for w in adj[u]):
                    members.append(u)
        else:
            members.extend(levels[lvl])

    sub, old_to_new, new_to_old = induced_subgraph(g, members)
    return LocalGraph(
        graph=sub,
        to_global=new_to_old,
        radius=effective,
        solu1=[old_to_new[u] for u in new_to_old if u in cs],
    )


def _greedy_by_weight(g: Graph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: (-g.weights[v], v))
    blocked = [False] * g.n
    chosen: list[int] = []
    for v in order:
        if blocked[v]:
            continue
        chosen.append(v)
        blocked[v] = True
        for u in g.adjacency[v]:
            blocked[u] = True
    return chosen


def region_search(
    state: SolutionState,
    best: dict[int, None],
    radius_base: int,
    search_depth: int,
    rng: random.Random,
    deadline: float = math.inf,
    on_improve=None,
    stats_out: dict | None = None,
) -> tuple[dict[int, None], bool]:
    """Run bounded descents inside regions centered on the least-visited
    solution vertices, splicing every strict improvement into both the working
    and the best solution. Expects the working solution to equal `best`.

    Examines one budget segment of centers (a hundredth of the solution, at
    least one); each fully fruitless segment extends the budget by another
    segment. Returns the (possibly improved) best set and whether any splice
    happened.
    """
    g = state.g
    best = best.copy()
    flag = False
    if len(state.cs) == 0:
        if stats_out is not None:
            stats_out.update(centers=0, final_budget=max(1, len(state.cs) // 100))
        return best, flag

    pool = list(state.cs)
    improve_false: dict[int, int] = {}
    freq = state.freq
    budget = max(1, len(state.cs) // 100)
    c = 0
    size_cap = max(10_000, g.n // 5)

    while c <= min(len(state.cs), budget) and pool:
        if time.monotonic() >= deadline:
            break
        pick = min(range(len(pool)), key=lambda i: (freq[pool[i]], pool[i]))
        center = pool.pop(pick)
        c += 1
        radius = max(1, radius_base + improve_false.get(center, 0))
        region = build_local_graph(g, state.cs, center, radius, max_size=size_cap)
        inside_w = region.graph.set_weight(region.solu1)
        local_state = SolutionState(region.graph, _greedy_by_weight(region.graph))
        refined = adaptive_descent(local_state, region.solu1, search_depth, rng, deadline)
        refined_w = region.graph.set_weight(refined)
        if refined_w > inside_w:
            old_global = {region.to_global[u] for u in region.solu1}
            new_global = {region.to_global[u] for u in refined}
            for u in sorted(old_global - new_global):
                state.remove_vertex(u)
            for u in sorted(new_global - old_global):
                state.add_vertex(u)
            best = state.cs.copy()
            flag = True
            if on_improve is not None:
                on_improve(state.cs_weight)
        else:
            improve_false[center] = improve_false.get(center, 0) + 1
        if not flag and c == budget:
            budget += max(1, len(state.cs) // 100)

    if stats_out is not None:
        stats_out.update(centers=c, final_budget=budget)
    return best, flag
