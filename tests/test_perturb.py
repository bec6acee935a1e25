import random
from collections import Counter

import pytest

from mwis import SolutionState, build_graph, perturb_solution, sample_insertion_count
from mwis.perturb import BMS_T, ScoreStrategy, pick_strategy, sample_non_solution

from util import edgeless_graph, p3_151, random_graph, random_maximal_is


class TestSampleInsertionCount:
    def test_geometric_bonus_distribution(self):
        rng = random.Random(1)
        base_num = 1
        counts = Counter(sample_insertion_count(base_num, rng) - base_num for _ in range(100_000))
        # P(bonus = i+1) = 2^-i: bonus 2 half the time, 3 a quarter, 4 an eighth.
        assert counts[2] / 100_000 == pytest.approx(0.5, abs=0.01)
        assert counts[3] / 100_000 == pytest.approx(0.25, abs=0.01)
        assert counts[4] / 100_000 == pytest.approx(0.125, abs=0.008)

    def test_expected_total(self):
        rng = random.Random(2)
        draws = [sample_insertion_count(4, rng) for _ in range(100_000)]
        assert sum(draws) / len(draws) == pytest.approx(4 + 3, abs=0.05)

    def test_minimum_is_base_plus_two(self):
        rng = random.Random(3)
        assert min(sample_insertion_count(1, rng) for _ in range(10_000)) == 3


class TestPickStrategy:
    def test_uniform_over_four(self):
        rng = random.Random(4)
        counts = Counter(pick_strategy(rng) for _ in range(10_000))
        assert set(counts) == set(ScoreStrategy)
        for strategy in ScoreStrategy:
            assert 0.22 <= counts[strategy] / 10_000 <= 0.28

    def test_seeded_reproducibility(self):
        a = [pick_strategy(random.Random(7)) for _ in range(50)]
        b = [pick_strategy(random.Random(7)) for _ in range(50)]
        # same seed, fresh generator each draw: degenerate but deterministic
        assert a == b
        rng1, rng2 = random.Random(8), random.Random(8)
        assert [pick_strategy(rng1) for _ in range(200)] == [pick_strategy(rng2) for _ in range(200)]


class _NoSample(random.Random):
    """A generator whose `sample` must not be called: only vertex draws."""

    def sample(self, population, k, **kwargs):
        raise AssertionError("sample() called on the rejection branch")


def _p3_paths(count: int) -> SolutionState:
    """`count` disjoint 3-vertex paths with both ends in the solution, so a
    third of the graph lies outside it."""
    edges = [e for i in range(count) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))]
    g = build_graph(3 * count, edges, [1] * (3 * count))
    return SolutionState(g, [v for v in range(3 * count) if v % 3 != 1])


def _inclusion_rates(state: SolutionState, k: int, rng: random.Random, trials: int) -> dict:
    counts = Counter()
    for _ in range(trials):
        counts.update(sample_non_solution(state, k, rng))
    return {v: c / trials for v, c in counts.items()}


class TestSampleNonSolution:
    def test_distinct_non_solution_vertices(self):
        rng = random.Random(21)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 120), rng.choice([0.02, 0.1, 0.4]))
            s = SolutionState(g, random_maximal_is(rng, g))
            for v in list(s.cs)[: rng.randint(0, len(s.cs))]:
                s.remove_vertex(v)
            k = rng.choice([1, 5, BMS_T])
            drawn = sample_non_solution(s, k, rng)
            assert len(drawn) == len(set(drawn)) == min(k, g.n - len(s.cs))
            assert not any(v in s.cs for v in drawn)

    def test_rejection_branch_is_uniform(self):
        # 150 of 200 vertices lie outside the solution: draws are rejected
        s = SolutionState(edgeless_graph([1] * 200), range(50))
        rates = _inclusion_rates(s, 50, _NoSample(22), 40_000)
        assert set(rates) == set(range(50, 200))
        assert all(abs(r - 50 / 150) <= 0.01 for r in rates.values())

    def test_scan_branch_is_uniform(self):
        s = _p3_paths(150)
        rates = _inclusion_rates(s, 50, random.Random(23), 40_000)
        assert set(rates) == set(range(1, 450, 3))
        assert all(abs(r - 50 / 150) <= 0.01 for r in rates.values())

    def test_small_complement_is_returned_whole(self):
        s = _p3_paths(BMS_T)
        assert sorted(sample_non_solution(s, BMS_T, _NoSample(24))) == list(range(1, 3 * BMS_T, 3))
        s = SolutionState(edgeless_graph([1] * 100), range(60))
        assert sorted(sample_non_solution(s, BMS_T, _NoSample(25))) == list(range(60, 100))

    def test_covered_graph_gives_nothing(self):
        s = SolutionState(edgeless_graph([1] * 5), range(5))
        assert sample_non_solution(s, BMS_T, _NoSample(26)) == []


class TestPerturbSolution:
    def test_loss_strategy_takes_profitable_vertex(self):
        s = SolutionState(p3_151(), [0, 2])
        perturb_solution(s, ScoreStrategy.LOSS, 1, random.Random(1))
        assert set(s.cs) == {1}
        assert s.cs_weight == 5

    def test_age_ties_break_to_lowest_id(self):
        g = edgeless_graph([1, 1, 1])
        s = SolutionState(g)
        perturb_solution(s, ScoreStrategy.AGE, 1, random.Random(1))
        # all ages equal zero; vertex 0 wins the tie, then maximize adds the rest
        assert s.freq[0] == 1
        assert set(s.cs) == {0, 1, 2}

    def test_oversized_num_inserts_each_vertex_once(self):
        g = edgeless_graph([1, 2, 3])
        s = SolutionState(g)
        perturb_solution(s, ScoreStrategy.FREQ, 10, random.Random(1))
        assert set(s.cs) == {0, 1, 2}
        assert all(s.freq[v] == 1 for v in range(3))

    def test_full_solution_is_left_alone(self):
        g = edgeless_graph([1, 1])
        s = SolutionState(g)
        s.maximize()
        perturb_solution(s, ScoreStrategy.FREQ, 3, random.Random(1))
        assert set(s.cs) == {0, 1}

    def test_result_is_independent_and_maximal(self):
        rng = random.Random(55)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 40), rng.choice([0.1, 0.3]))
            s = SolutionState(g)
            s.maximize()
            strategy = pick_strategy(rng)
            num = sample_insertion_count(1, rng)
            perturb_solution(s, strategy, num, rng)
            s.check_invariants()
            assert len(s.free) == 0

    def test_deterministic_per_seed(self):
        g = random_graph(random.Random(9), 30, 0.2)
        results = []
        for _ in range(2):
            s = SolutionState(g)
            s.maximize()
            perturb_solution(s, ScoreStrategy.FREQ, 4, random.Random(123))
            results.append(sorted(s.cs))
        assert results[0] == results[1]

    def test_negative_loss_step_gains_weight(self):
        # the only non-solution vertex has negative loss: the step cannot lose
        s = SolutionState(p3_151(), [0, 2])
        before = s.cs_weight
        perturb_solution(s, ScoreStrategy.LOSS, 1, random.Random(2))
        assert s.cs_weight >= before
