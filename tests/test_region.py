import random

import pytest

from mwis import SolutionState, build_graph, build_local_graph, region_search

from util import edgeless_graph, path_graph, random_graph, random_maximal_is


class TestBuildLocalGraph:
    def test_boundary_exclusion_on_path(self):
        # P6 with solution {0, 3, 5}: radius 1 around vertex 1 keeps {0, 1};
        # vertex 2 is cut because solution vertex 3 sits one level further out.
        g = path_graph([1] * 6)
        cs = {0, 3, 5}
        region = build_local_graph(g, cs, 1, 1)
        assert sorted(region.to_global) == [0, 1]
        assert {region.to_global[v] for v in region.solu1} == {0}

    def test_isolated_center(self):
        g = edgeless_graph([1, 1, 1])
        region = build_local_graph(g, {0}, 0, 5)
        assert region.to_global == [0]
        assert {region.to_global[v] for v in region.solu1} == {0}

    def test_radius_beyond_component_takes_whole_component(self):
        g = path_graph([1] * 4)
        region = build_local_graph(g, set(), 0, 10)
        assert sorted(region.to_global) == [0, 1, 2, 3]

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            build_local_graph(path_graph([1, 1]), set(), 0, 0)

    def test_size_cap_shrinks_radius(self):
        g = path_graph([1] * 50)
        region = build_local_graph(g, set(), 25, 20, max_size=9)
        assert region.radius < 20
        assert len(region.to_global) <= 11

    def test_splice_safety_definition(self):
        # no kept vertex may touch a solution vertex outside the region
        rng = random.Random(404)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 60), rng.choice([0.05, 0.1, 0.2]))
            cs = set(random_maximal_is(rng, g))
            center = rng.randrange(g.n)
            region = build_local_graph(g, cs, center, rng.randint(1, 4))
            inside = set(region.to_global)
            for v in inside:
                for u in g.adjacency[v]:
                    if u in cs:
                        assert u in inside

    def test_matches_definition_recompute(self):
        from util import all_pairs_bfs

        rng = random.Random(505)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 40), 0.15)
            cs = set(random_maximal_is(rng, g))
            center = rng.randrange(g.n)
            radius = rng.randint(1, 3)
            region = build_local_graph(g, cs, center, radius)
            dist = all_pairs_bfs(g)[center]
            ball = {v for v in range(g.n) if 0 <= dist[v] <= radius}
            excluded = {
                v
                for v in ball
                if dist[v] == radius
                and any(u in cs and dist[u] == radius + 1 for u in g.adjacency[v])
            }
            assert set(region.to_global) == ball - excluded


class TestRegionSearch:
    def _state_with(self, g, members):
        s = SolutionState(g, members)
        return s

    def test_empty_solution_returns_immediately(self):
        g = path_graph([1, 1, 1])
        s = self._state_with(g, [])
        best, improved = region_search(s, s.cs.copy(), 1, 10, random.Random(1))
        assert not improved
        assert len(best) == 0

    def test_improving_splice(self):
        # Heavy vertex 1 is outside the current solution; a region around a
        # low-frequency center must swap it in.
        g = path_graph([1, 5, 1, 1, 1, 1])
        s = self._state_with(g, [0, 3, 5])
        best, improved = region_search(s, s.cs.copy(), 2, 10, random.Random(1))
        assert improved
        assert 1 in best
        assert g.set_weight(best) > 3
        s.check_invariants()
        assert s.cs == best

    def test_budget_growth_on_fruitless_segments(self):
        g = edgeless_graph([1] * 250)
        s = self._state_with(g, list(range(250)))  # already optimal everywhere
        stats: dict = {}
        best, improved = region_search(
            s, s.cs.copy(), 1, 5, random.Random(1), stats_out=stats
        )
        assert not improved
        # segment size is 2 for 250 members; every segment is fruitless, so the
        # budget stretches by 2 at each boundary until the list is exhausted
        assert stats["centers"] == 250
        assert stats["final_budget"] == 252

    def test_budget_stops_growing_after_improvement(self):
        # all even vertices: maximal, but the heavy vertex 1 stays blocked
        g = path_graph([1, 5, 1] + [1] * 300)
        s = SolutionState(g, list(range(0, 303, 2)))
        stats: dict = {}
        best, improved = region_search(
            s, s.cs.copy(), 2, 10, random.Random(1), stats_out=stats
        )
        assert improved
        assert 1 in best
        assert g.set_weight(best) == 155
        # the first segment already improved, so the budget never grew
        assert stats["final_budget"] == 1

    def test_splices_preserve_global_independence(self):
        rng = random.Random(9090)
        for _ in range(15):
            g = random_graph(rng, rng.randint(20, 120), 0.05)
            s = SolutionState(g, random_maximal_is(rng, g))
            best, improved = region_search(
                s, s.cs.copy(), 2, 20, rng
            )
            s.check_invariants()
            assert g.is_independent(best)
            assert s.cs == best or not improved
