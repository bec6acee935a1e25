import random
import time

import pytest

from mwis import SolutionState, adaptive_descent, brute_force_mwis

from util import p3_151, random_graph


def test_path_descends_to_optimum():
    s = SolutionState(p3_151(), [0, 2])
    best = adaptive_descent(s, s.cs.copy(), -1, random.Random(1))
    assert set(best) == {1}


def test_depth_one_attempts_exactly_one_perturbation():
    s = SolutionState(p3_151(), [1])  # already locally optimal for module A
    best = adaptive_descent(s, s.cs.copy(), 1, random.Random(1))
    assert set(best) == {1}
    assert s.iter == 1  # one perturbation round ran before the budget tripped
    assert sum(s.freq) > 0


def test_invalid_depth_rejected():
    s = SolutionState(p3_151())
    with pytest.raises(ValueError):
        adaptive_descent(s, s.cs.copy(), 0, random.Random(1))
    with pytest.raises(ValueError):
        adaptive_descent(s, s.cs.copy(), -2, random.Random(1))


def test_best_is_monotone_and_independent():
    rng = random.Random(12)
    for _ in range(10):
        g = random_graph(rng, rng.randint(6, 30), rng.choice([0.1, 0.3]))
        s = SolutionState(g)
        s.maximize()
        start = s.cs_weight
        best = adaptive_descent(s, s.cs.copy(), 40, rng)
        assert g.set_weight(best) >= start
        assert g.is_independent(best)
        assert s.uiter <= 40


def test_stagnation_budget_respected():
    g = random_graph(random.Random(8), 15, 0.3)
    s = SolutionState(g)
    s.maximize()
    adaptive_descent(s, s.cs.copy(), 5, random.Random(8))
    assert s.uiter <= 5


def test_random_instances_reach_optimum():
    # stronger variant of the documented behavior: 0.3 s budgets imply the
    # stated 1 s budget
    rng = random.Random(909)
    g = random_graph(rng, 14, 0.3)
    _, opt = brute_force_mwis(g)
    hits = 0
    for seed in range(1, 101):
        s = SolutionState(g)
        s.maximize()
        best = adaptive_descent(
            s, s.cs.copy(), -1, random.Random(seed),
            deadline=time.monotonic() + 0.3,
        )
        w = g.set_weight(best)
        assert w <= opt
        hits += w == opt
    assert hits >= 95


def test_deterministic_per_seed():
    g = random_graph(random.Random(44), 25, 0.2)
    outs = []
    for _ in range(2):
        s = SolutionState(g)
        s.maximize()
        best = adaptive_descent(s, s.cs.copy(), 60, random.Random(5))
        outs.append(sorted(best))
    assert outs[0] == outs[1]
