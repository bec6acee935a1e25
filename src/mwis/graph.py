"""Immutable weighted undirected graph."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

# The search keeps its solutions in plain sets; perfbench's membership probe
# builds that container through this name.
VertexSet = set


class Graph:
    """Weighted undirected graph over vertices 0..n-1.

    Adjacency lists are sorted, symmetric, loop-free and deduplicated.
    Instances are treated as immutable after construction and are safe to
    share between threads.
    """

    __slots__ = ("n", "m", "adjacency", "weights")

    def __init__(self, n: int, adjacency: list[list[int]], weights: list[int], m: int):
        self.n = n
        self.adjacency = adjacency
        self.weights = weights
        self.m = m

    def has_edge(self, u: int, v: int) -> bool:
        adj = self.adjacency[u]
        if len(self.adjacency[v]) < len(adj):
            adj, u, v = self.adjacency[v], v, u
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def set_weight(self, vertices: Iterable[int]) -> int:
        w = self.weights
        return sum(w[v] for v in vertices)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """Full-scan independence check (intended for validation, not hot paths)."""
        members = set(vertices)
        for v in members:
            adj = self.adjacency[v]
            for u in adj:
                if u in members:
                    return False
        return True


def build_graph(n: int, edges: Iterable[tuple[int, int]], weights: list[int]) -> Graph:
    """Build a Graph from an edge list, deduplicating edges and dropping self-loops.

    Raises ValueError for endpoints out of range, a weight list of the wrong
    length, or non-positive weights.
    """
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    for v, w in enumerate(weights):
        if w < 1:
            raise ValueError(f"vertex {v} has non-positive weight {w}")
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint out of range [0, {n})")
        if u == v:
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
    sorted_adj = [sorted(a) for a in adjacency]
    m = sum(len(a) for a in sorted_adj) // 2
    return Graph(n, sorted_adj, list(weights), m)


def replace_weights(g: Graph, weights: list[int]) -> Graph:
    """New Graph sharing g's adjacency structure with a different weight vector."""
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    for v, w in enumerate(weights):
        if w < 1:
            raise ValueError(f"vertex {v} has non-positive weight {w}")
    return Graph(g.n, g.adjacency, list(weights), g.m)


def induced_subgraph(
    g: Graph, keep: Iterable[int]
) -> tuple[Graph, dict[int, int], list[int]]:
    """Subgraph induced by `keep`, plus old->new and new->old vertex mappings.

    Kept vertices are renumbered in ascending order of their original ids.
    """
    new_to_old = sorted(set(keep))
    for v in new_to_old:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    adjacency: list[list[int]] = []
    m = 0
    for old in new_to_old:
        row = [old_to_new[u] for u in g.adjacency[old] if u in old_to_new]
        m += len(row)
        adjacency.append(row)
    weights = [g.weights[old] for old in new_to_old]
    return Graph(len(new_to_old), adjacency, weights, m // 2), old_to_new, new_to_old
