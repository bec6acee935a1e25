import random

from mwis import (
    brute_force_mwis,
    build_graph,
    build_initial_solution,
    density_radius,
    greedy_construction,
    reduction_construction,
)

from util import (
    c4_3131,
    cycle_graph,
    edgeless_graph,
    p3_151,
    path_graph,
    random_gnm_graph,
    random_graph,
    reference_greedy_construction,
    reference_reduction_construction,
    star_graph,
)


class TestDensityRadius:
    def test_small_path_is_level_zero(self):
        g = path_graph([1] * 10)  # average degree 1.8, threshold 1
        assert density_radius(g) == 0

    def test_complete_graph(self):
        n = 100
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, edges, [1] * n)
        assert density_radius(g) == 1

    def test_cycle_ten_thousand(self):
        g = cycle_graph([1] * 10_000)  # average degree exactly 2, threshold 1000
        assert density_radius(g) == 9

    def test_degenerate_series_capped_at_n(self):
        g = edgeless_graph([1] * 50)
        assert density_radius(g) == 50

    def test_tiny_edgeless_is_zero(self):
        assert density_radius(edgeless_graph([1] * 10)) == 0

    def test_exact_threshold_comparison(self):
        # n=20 path: average degree 19/10; threshold 2. Level 0 gives 1 < 2,
        # level 1 gives 1 + 1.9 = 2.9 >= 2.
        g = path_graph([1] * 20)
        assert density_radius(g) == 1


class TestGreedyConstruction:
    def test_path_takes_heavy_middle(self):
        assert set(greedy_construction(p3_151())) == {1}

    def test_star_center_wins_on_score(self):
        g = star_graph(10, [1, 1, 1])
        assert set(greedy_construction(g)) == {0}

    def test_edgeless_takes_all(self):
        g = edgeless_graph([1, 2, 3])
        assert set(greedy_construction(g)) == {0, 1, 2}

    def test_output_is_maximal_independent(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.1, 0.3, 0.6]))
            s = greedy_construction(g)
            assert g.is_independent(s)
            members = set(s)
            for v in range(g.n):
                if v not in members:
                    assert any(u in members for u in g.adjacency[v])

    def test_matches_per_decrement_reference(self):
        # Same picks in the same order as pushing on every degree decrement;
        # weights 1 and 1..3 make many scores tie, exercising the id tie-break.
        rng = random.Random(31)
        for max_weight in (1, 3, 200):
            for p in (0.02, 0.1, 0.3, 0.6):
                for _ in range(26):
                    g = random_graph(rng, rng.randint(1, 80), p, max_weight)
                    assert list(greedy_construction(g)) == list(reference_greedy_construction(g))
            g = random_graph(rng, 300, 0.2, max_weight)
            assert list(greedy_construction(g)) == list(reference_greedy_construction(g))


class TestReductionConstruction:
    def test_path_optimal(self):
        assert set(reduction_construction(p3_151())) == {1}

    def test_cycle_optimal(self):
        assert set(reduction_construction(c4_3131())) == {0, 2}

    def test_edgeless_takes_all(self):
        g = edgeless_graph([4, 4])
        assert set(reduction_construction(g)) == {0, 1}

    def test_beats_greedy_on_heavy_leaf_star(self):
        # Center 5 vs four leaves of 2: greedy scores favor the center (2.5
        # against 2.0) but the leaves together weigh 8.
        g = star_graph(5, [2, 2, 2, 2])
        assert set(greedy_construction(g)) == {0}
        assert set(reduction_construction(g)) == {1, 2, 3, 4}

    def test_output_is_maximal_independent(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.15, 0.4]))
            s = reduction_construction(g)
            assert g.is_independent(s)
            members = set(s)
            for v in range(g.n):
                if v not in members:
                    assert any(u in members for u in g.adjacency[v])

    def test_matches_quadratic_reference(self):
        # Unit weights and weights in 1..3 make many gaps tie, so the
        # smallest-id tie-break is exercised as well as the heap order.
        rng = random.Random(23)
        for max_weight in (1, 3, 200):
            for _ in range(100):
                g = random_graph(rng, rng.randint(1, 60), rng.choice([0.03, 0.08, 0.15, 0.3]), max_weight)
                assert reduction_construction(g) == reference_reduction_construction(g)
            for _ in range(3):
                g = random_gnm_graph(rng, 600, 1800, max_weight)
                assert reduction_construction(g) == reference_reduction_construction(g)


class TestBuildInitialSolution:
    def test_dense_radius_uses_greedy(self):
        g = star_graph(5, [2, 2, 2, 2])
        assert build_initial_solution(g, 1) == greedy_construction(g)
        assert build_initial_solution(g, 2) == greedy_construction(g)

    def test_sparse_radius_uses_reductions(self):
        g = star_graph(5, [2, 2, 2, 2])
        assert build_initial_solution(g, 3) == reduction_construction(g)

    def test_path_optimal_either_way(self):
        g = p3_151()
        assert set(build_initial_solution(g, 0)) == {1}
        assert set(build_initial_solution(g, 9)) == {1}


def test_construction_quality_floor():
    # Statistical regression guard: at least 60% of the exact optimum on a
    # small random corpus (no approximation guarantee is claimed).
    rng = random.Random(600)
    for _ in range(200):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        _, opt = brute_force_mwis(g)
        for solution in (greedy_construction(g), reduction_construction(g)):
            assert g.set_weight(solution) >= 0.6 * opt
