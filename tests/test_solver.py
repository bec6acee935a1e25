import random

import pytest

from mwis import SolverConfig, brute_force_mwis, build_graph, solve
from mwis.construct import density_radius
from mwis.reduction import reduce_graph

from util import (
    c4_3131,
    cycle_graph,
    cycle_mwis_weight,
    edgeless_graph,
    p3_151,
    random_graph,
)


def test_path_optimum():
    r = solve(p3_151(), SolverConfig(time_limit=0.5, seed=1))
    assert r.best_set == (1,)
    assert r.best_weight == 5


def test_edgeless_takes_everything():
    g = edgeless_graph([1, 2, 3, 4, 5])
    r = solve(g, SolverConfig(time_limit=0.5, seed=1))
    assert r.best_set == (0, 1, 2, 3, 4)
    assert r.best_weight == 15


def test_empty_graph():
    g = build_graph(0, [], [])
    r = solve(g, SolverConfig(time_limit=0.2, seed=1))
    assert r.best_set == ()
    assert r.best_weight == 0


def test_cycle_with_reduction_hits_dp_optimum():
    rng = random.Random(7)
    weights = [rng.randint(1, 200) for _ in range(100)]
    g = cycle_graph(weights)
    r = solve(g, SolverConfig(time_limit=1.0, seed=1))
    assert r.best_weight == cycle_mwis_weight(weights)


def test_sparse_regime_without_reduction():
    # a weighted cycle of 100 has density radius 3: exercises the descent,
    # region and composite stages directly
    rng = random.Random(7)
    weights = [rng.randint(1, 200) for _ in range(100)]
    g = cycle_graph(weights)
    assert density_radius(g) == 3
    r = solve(g, SolverConfig(time_limit=1.5, seed=1, no_reduce=True))
    assert r.best_weight == cycle_mwis_weight(weights)
    assert r.kernel_n == g.n
    assert r.iterations > 0


def test_result_fields_consistent():
    g = c4_3131()
    r = solve(g, SolverConfig(time_limit=0.3, seed=2))
    assert r.best_weight == g.set_weight(r.best_set)
    assert g.is_independent(r.best_set)
    assert r.best_set == tuple(sorted(r.best_set))
    assert 0 <= r.time_to_best <= r.elapsed + 1e-6
    assert r.trace
    weights = [w for _, w in r.trace]
    assert weights == sorted(weights)
    assert weights[-1] == r.best_weight


def test_kernel_stats_reported():
    g = c4_3131()
    r = solve(g, SolverConfig(time_limit=0.2, seed=1))
    k = reduce_graph(g)
    assert r.kernel_n == k.graph.n
    assert r.kernel_m == k.graph.m


def test_deterministic_replay():
    g = random_graph(random.Random(31), 24, 0.25)
    a = solve(g, SolverConfig(time_limit=0.4, seed=9, no_reduce=True))
    b = solve(g, SolverConfig(time_limit=0.4, seed=9, no_reduce=True))
    assert a.best_set == b.best_set
    assert a.best_weight == b.best_weight


def test_seeds_drive_search():
    g = random_graph(random.Random(100), 30, 0.2)
    r1 = solve(g, SolverConfig(time_limit=0.3, seed=1, no_reduce=True))
    r2 = solve(g, SolverConfig(time_limit=0.3, seed=2, no_reduce=True))
    # both valid; weights may differ only below the optimum, and usually agree
    assert g.is_independent(r1.best_set)
    assert g.is_independent(r2.best_set)


def test_never_exceeds_and_usually_matches_optimum():
    rng = random.Random(808)
    misses = 0
    for _ in range(30):
        n = rng.randint(8, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5]))
        _, opt = brute_force_mwis(g)
        r = solve(g, SolverConfig(time_limit=0.3, seed=1))
        assert r.best_weight <= opt
        misses += r.best_weight != opt
    assert misses == 0


def test_time_limit_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0)


@pytest.mark.parametrize(
    "field, value",
    [("time_limit", float("nan")), ("reduce_cap", -1.0), ("reduce_cap", float("nan"))],
)
def test_nan_and_negative_limits_rejected(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_default_config_used_when_none():
    # explicit tiny graph so the default 1000 s limit exits via full reduction
    r = solve(p3_151())
    assert r.best_weight == 5
