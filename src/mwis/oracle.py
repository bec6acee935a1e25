"""Exact maximum-weight independent set solver for small instances.

`brute_force_mwis` backs `mwis exact` and is the ground truth of the test
suite; it is deliberately simple and bounded to small vertex counts.
"""

from __future__ import annotations

from .graph import Graph

BRUTE_FORCE_LIMIT = 32


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in g.adjacency[v]:
            m |= 1 << u
        masks[v] = m
    return masks


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def brute_force_mwis(g: Graph) -> tuple[tuple[int, ...], int]:
    """Optimal independent set, as an ascending vertex tuple, and its weight,
    by branch and bound over bitmasks.

    Branches on the highest-degree remaining vertex with a weight-sum upper
    bound. Ties in optimal weight resolve to the lexicographically smallest
    sorted vertex tuple. Guarded to n <= 32.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices, got {g.n}")
    adj_mask = _adjacency_masks(g)
    weights = g.weights
    best_weight = 0
    best_tuple: tuple[int, ...] = ()

    # (mask of available vertices, chosen weight, chosen mask, remaining weight)
    stack = [((1 << g.n) - 1, 0, 0, sum(weights))]
    while stack:
        mask, cur_w, cur_set, remaining = stack.pop()
        # Strict prune only: equal-weight completions still reach the tie-break.
        if cur_w + remaining < best_weight:
            continue
        if mask == 0:
            cand = _mask_vertices(cur_set)
            if cur_w > best_weight or (cur_w == best_weight and cand < best_tuple):
                best_weight = cur_w
                best_tuple = cand
            continue
        # Branch vertex: highest degree within the remaining mask, ties by smallest id.
        pick = -1
        pick_deg = -1
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (adj_mask[v] & mask).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
            rest ^= low
        bit = 1 << pick
        # Exclude branch first so the include branch is explored first (LIFO).
        stack.append((mask ^ bit, cur_w, cur_set, remaining - weights[pick]))
        removed = (adj_mask[pick] & mask) | bit
        removed_w = sum(weights[u] for u in _mask_vertices(removed))
        stack.append((mask & ~removed, cur_w + weights[pick], cur_set | bit, remaining - removed_w))

    return best_tuple, best_weight

