import random
from collections import Counter

import pytest

from mwis import (
    ScoreStrategy,
    SolutionState,
    perturb_solution,
    pick_strategy,
    sample_insertion_count,
)

from util import edgeless_graph, p3_151, random_graph


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


class TestPerturbSolution:
    def test_loss_strategy_takes_profitable_vertex(self):
        s = SolutionState(p3_151(), [0, 2])
        perturb_solution(s, ScoreStrategy.LOSS, 1, random.Random(1))
        assert s.cs == {1}
        assert s.cs_weight == 5

    def test_age_ties_break_to_lowest_id(self):
        g = edgeless_graph([1, 1, 1])
        s = SolutionState(g)
        perturb_solution(s, ScoreStrategy.AGE, 1, random.Random(1))
        # all ages equal zero; vertex 0 wins the tie, then maximize adds the rest
        assert s.freq[0] == 1
        assert s.cs == {0, 1, 2}

    def test_oversized_num_inserts_each_vertex_once(self):
        g = edgeless_graph([1, 2, 3])
        s = SolutionState(g)
        perturb_solution(s, ScoreStrategy.FREQ, 10, random.Random(1))
        assert s.cs == {0, 1, 2}
        assert all(s.freq[v] == 1 for v in range(3))

    def test_full_solution_is_left_alone(self):
        g = edgeless_graph([1, 1])
        s = SolutionState(g)
        s.maximize()
        perturb_solution(s, ScoreStrategy.FREQ, 3, random.Random(1))
        assert s.cs == {0, 1}

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
