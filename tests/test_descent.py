import random
import time

import pytest

from mwis import Incumbent, SolutionState, adaptive_descent, brute_force_mwis

from util import edgeless_graph, p3_151, random_gnm_graph, random_graph


def test_path_descends_to_optimum():
    s = SolutionState(p3_151(), [0, 2])
    inc = Incumbent(s.g, s.cs)
    assert adaptive_descent(s, inc, -1, random.Random(1))
    assert set(inc.best) == {1}


def test_depth_one_attempts_exactly_one_perturbation():
    s = SolutionState(p3_151(), [1])  # already locally optimal for module A
    inc = Incumbent(s.g, s.cs)
    assert not adaptive_descent(s, inc, 1, random.Random(1))
    assert set(inc.best) == {1}
    assert s.iter == 1  # one perturbation round ran before the budget tripped
    assert sum(s.freq) > 0


def test_invalid_depth_rejected():
    s = SolutionState(p3_151())
    with pytest.raises(ValueError):
        adaptive_descent(s, Incumbent(s.g), 0, random.Random(1))
    with pytest.raises(ValueError):
        adaptive_descent(s, Incumbent(s.g), -2, random.Random(1))


def test_best_is_monotone_and_independent():
    rng = random.Random(12)
    for _ in range(10):
        g = random_graph(rng, rng.randint(6, 30), rng.choice([0.1, 0.3]))
        s = SolutionState(g)
        s.maximize()
        start = s.cs_weight
        inc = Incumbent(g, s.cs)
        improved = adaptive_descent(s, inc, 40, rng)
        assert inc.weight == g.set_weight(inc.best) >= start
        assert improved == (inc.weight > start)
        assert g.is_independent(inc.best)
        assert s.uiter <= 40


def test_stagnation_budget_respected():
    g = random_graph(random.Random(8), 15, 0.3)
    s = SolutionState(g)
    s.maximize()
    adaptive_descent(s, Incumbent(g, s.cs), 5, random.Random(8))
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
        inc = Incumbent(g, s.cs)
        adaptive_descent(
            s, inc, -1, random.Random(seed),
            deadline=time.monotonic() + 0.3,
        )
        w = g.set_weight(inc.best)
        assert w <= opt
        hits += w == opt
    assert hits >= 95


def test_deterministic_per_seed():
    g = random_graph(random.Random(44), 25, 0.2)
    outs = []
    for _ in range(2):
        s = SolutionState(g)
        s.maximize()
        inc = Incumbent(g, s.cs)
        adaptive_descent(s, inc, 60, random.Random(5))
        outs.append(sorted(inc.best))
    assert outs[0] == outs[1]


def test_interrupt_keeps_the_banked_best(monkeypatch):
    # Ctrl-C in the middle of a global descent: every best found before it is
    # already banked in the incumbent, set and weight together.
    import mwis.descent

    g = random_gnm_graph(random.Random(3), 400, 1200)
    s = SolutionState(g)
    s.maximize()
    seen: list[int] = []
    inc = Incumbent(g, s.cs, seen.append)
    real = mwis.descent.run_module_a
    calls = 0

    def interrupted(state, deadline):
        nonlocal calls
        calls += 1
        if calls == 200:
            raise KeyboardInterrupt
        return real(state, deadline)

    monkeypatch.setattr(mwis.descent, "run_module_a", interrupted)
    with pytest.raises(KeyboardInterrupt):
        adaptive_descent(s, inc, -1, random.Random(3))
    assert s.cs_weight < inc.weight  # the working solution has moved off the best
    assert inc.weight == seen[-1]
    assert inc.weight == g.set_weight(inc.best)
    assert g.is_independent(inc.best)


def test_every_round_perturbs_from_the_lowest_floor(monkeypatch):
    # An edgeless graph fully in the solution cannot improve, so every round
    # is stagnant; the floor stays at 1 however long the stagnation lasts.
    import mwis.descent

    floors: list[int] = []
    real = mwis.descent.sample_insertion_count

    def recording(floor, rng):
        floors.append(floor)
        return real(floor, rng)

    monkeypatch.setattr(mwis.descent, "sample_insertion_count", recording)
    g = edgeless_graph([1] * 10)
    s = SolutionState(g, range(10))
    assert not adaptive_descent(s, Incumbent(g, s.cs), 400, random.Random(1))
    assert len(floors) >= 300
    assert set(floors) == {1}
