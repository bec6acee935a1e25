"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
printing a PASS line with the measured numbers (visible with pytest -s).
Criterion 9 needs locally provided public instances and is skipped unless
MWIS_INSTANCE_DIR points at them; it is meant for manual runs, not CI.
"""

import os
import random
import statistics
import time
from pathlib import Path

import pytest

from mwis import (
    RewardTable,
    Incumbent,
    SolutionState,
    SolverConfig,
    VertexSet,
    adaptive_descent,
    assign_weights_family_a,
    assign_weights_family_b,
    brute_force_mwis,
    build_initial_solution,
    build_local_graph,
    density_radius,
    parse_metis,
    reduce_graph,
    lift_solution,
    select_module,
    solve,
)
from mwis.construct import greedy_construction
from mwis.perturb import sample_insertion_count
from mwis.region import _greedy_by_weight

from util import random_gnm_graph, random_graph, random_maximal_is


def _corpus(seed: int, count: int, n_lo: int = 8, n_hi: int = 18):
    rng = random.Random(seed)
    probs = [0.1, 0.2, 0.3, 0.4, 0.5]
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        yield random_graph(rng, n, probs[i % len(probs)])


def test_criterion_1_oracle_equivalence():
    """500 seeded random instances at a 1 s budget: >= 99% optimal, never above."""
    hits = 0
    total = 500
    for i, g in enumerate(_corpus(10_001, total)):
        _, opt = brute_force_mwis(g)
        result = solve(g, SolverConfig(time_limit=1.0, seed=1))
        assert result.best_weight <= opt, f"instance {i}: {result.best_weight} exceeds optimum {opt}"
        hits += result.best_weight == opt
    rate = hits / total
    assert rate >= 0.99, f"optimum hit rate {rate:.3f} below 0.99"
    print(f"\n[criterion 1] PASS: {hits}/{total} optimal ({rate:.1%}), none above optimum")


def test_criterion_2_reduction_exactness():
    """Kernel optimum plus offset equals the original optimum; lifts are optimal."""
    total = 200
    for i, g in enumerate(_corpus(20_002, total)):
        _, opt = brute_force_mwis(g)
        kernel = reduce_graph(g)
        k_set, k_w = brute_force_mwis(kernel.graph)
        assert k_w + kernel.offset == opt, f"instance {i}: exactness broken"
        lifted = lift_solution(kernel, k_set)
        assert g.is_independent(lifted), f"instance {i}: lift not independent"
        assert g.set_weight(lifted) == opt, f"instance {i}: lift not optimal"
    print(f"\n[criterion 2] PASS: exactness and optimal lifting on {total}/{total} instances")


def test_criterion_3_independence_invariant():
    """1e5 fuzzed state operations plus 1e3 full solver runs never break independence."""
    rng = random.Random(30_003)
    ops_done = 0
    while ops_done < 100_000:
        g = random_graph(rng, rng.randint(2, 50), rng.choice([0.05, 0.15, 0.3]))
        s = SolutionState(g)
        for _ in range(500):
            roll = rng.random()
            if roll < 0.3 and len(s.free) > 0:
                s.add_vertex(rng.choice(sorted(s.free)))
            elif roll < 0.55 and len(s.cs) > 0:
                s.remove_vertex(rng.choice(sorted(s.cs)))
            elif roll < 0.8 and len(s.cs) < g.n:
                s.insert_with_removal(rng.choice([u for u in range(g.n) if u not in s.cs]))
            elif roll < 0.9:
                s.maximize()
            else:
                s.tick(rng.random() < 0.5)
            ops_done += 1
            s.check_invariants()  # includes the full-scan independence check

    runs = 1000
    for i in range(runs):
        g = random_graph(rng, rng.randint(4, 14), rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        result = solve(
            g,
            SolverConfig(time_limit=0.05, seed=i + 1, no_reduce=bool(i % 2)),
        )
        assert g.is_independent(result.best_set), f"run {i}: dependent best set"
        assert g.set_weight(result.best_set) == result.best_weight
    print(f"\n[criterion 3] PASS: {ops_done} state ops and {runs} solver runs, independence held")


def test_criterion_4_splice_safety():
    """1e3 region builds plus splices always preserve global independence."""
    rng = random.Random(40_004)
    trials = 1000
    for i in range(trials):
        g = random_graph(rng, rng.randint(5, 200), rng.choice([0.02, 0.05, 0.1]))
        cs_members = random_maximal_is(rng, g)
        cs = VertexSet(cs_members)
        center = rng.randrange(g.n)
        radius = rng.randint(1, 4)
        region = build_local_graph(g, cs, center, radius)

        # boundary exclusion, straight from the definition
        inside = set(region.to_global)
        for v in inside:
            for u in g.adjacency[v]:
                if u in cs:
                    assert u in inside, f"trial {i}: boundary exclusion violated"

        # splice an arbitrary independent set of the region into the solution
        replacement = {region.to_global[v] for v in _greedy_by_weight(region.graph)}
        spliced = (set(cs_members) - {region.to_global[v] for v in region.solu1}) | replacement
        assert g.is_independent(spliced), f"trial {i}: splice broke independence"
    print(f"\n[criterion 4] PASS: {trials} build+splice trials kept global independence")


def test_criterion_5_distributions():
    """Insertion-count bonus matches its law (chi-squared p > 0.01) and module
    selection matches the roulette probabilities within 0.01."""
    from scipy.stats import chisquare

    rng = random.Random(50_005)
    draws = 100_000
    base_num = 1
    tail_at = 12
    observed = [0] * (tail_at + 1)
    for _ in range(draws):
        bonus = sample_insertion_count(base_num, rng) - base_num
        observed[min(bonus, tail_at)] += 1
    expected = [0.0] * (tail_at + 1)
    for bonus in range(2, tail_at):
        expected[bonus] = draws * 2 ** -(bonus - 1)
    expected[tail_at] = draws * 2 ** -(tail_at - 2)  # lumped tail
    obs = observed[2:]
    exp = expected[2:]
    stat, p_value = chisquare(obs, exp)
    assert p_value > 0.01, f"insertion-count chi-squared p={p_value:.4f}"

    table = RewardTable()
    counts = [0] * 6
    for _ in range(draws):
        counts[select_module(table, rng)] += 1
    for i in range(6):
        assert abs(counts[i] / draws - 1 / 6) <= 0.01

    table.re = [5, 1, 1, 1, 1, 1]
    counts = [0] * 6
    for _ in range(draws):
        counts[select_module(table, rng)] += 1
    assert abs(counts[0] / draws - 0.5) <= 0.01
    for i in range(1, 6):
        assert abs(counts[i] / draws - 0.1) <= 0.01
    print(f"\n[criterion 5] PASS: chi-squared p={p_value:.3f}, roulette frequencies within 0.01")


def test_criterion_6_monotone_traces_and_determinism():
    """50 (instance, seed) pairs: non-decreasing traces, bit-identical replays."""
    rng = random.Random(60_006)
    pairs = 0
    while pairs < 50:
        g = random_graph(rng, rng.randint(10, 14), rng.choice([0.2, 0.3]))
        seed = rng.randint(1, 10_000)
        cfg = SolverConfig(time_limit=0.4, seed=seed, no_reduce=True)
        first = solve(g, cfg)
        second = solve(g, cfg)
        weights = [w for _, w in first.trace]
        assert weights == sorted(weights), "trace not monotone"
        assert first.best_set == second.best_set, "replay diverged"
        assert first.best_weight == second.best_weight
        # tiny instances must land on the optimum, which pins the replay
        _, opt = brute_force_mwis(g)
        assert first.best_weight == opt
        pairs += 1
    print(f"\n[criterion 6] PASS: {pairs} pairs, monotone traces, bit-identical replays")


def test_criterion_7_improvement_over_construction():
    """100 sparse 200-vertex instances at 5 s: never below the constructed
    solution, strictly above it on at least 80%."""
    rng = random.Random(70_007)
    total = 100
    strict = 0
    for i in range(total):
        base = random_graph(rng, 200, 0.05, max_weight=1)
        g = assign_weights_family_b(base, seed=i + 1)
        kernel = reduce_graph(g)
        if kernel.graph.n > 0:
            radius = density_radius(kernel.graph)
            constructed = kernel.graph.set_weight(
                build_initial_solution(kernel.graph, radius)
            ) + kernel.offset
        else:
            constructed = kernel.offset
        result = solve(g, SolverConfig(time_limit=5.0, seed=1))
        assert result.best_weight >= constructed, f"instance {i}: below construction"
        strict += result.best_weight > constructed
    assert strict >= 0.8 * total, f"strict improvement on only {strict}/{total}"
    print(f"\n[criterion 7] PASS: never below construction, strictly above on {strict}/{total}")


def test_criterion_8_per_iteration_scaling():
    """Per-iteration cost growth stays within 4x the complexity bound's
    prediction when the instance size doubles (m proportional to n, so the
    bound's per-iteration ratio per doubling is 8; the gate is 32)."""
    sizes = (1000, 2000, 4000)
    budget = 2.0
    medians = []
    for n in sizes:
        per_iter = []
        for seed in (1, 2, 3):
            g = random_gnm_graph(random.Random(seed * 101 + n), n, 4 * n)
            state = SolutionState(g, build_initial_solution(g, density_radius(g)))
            state.maximize()
            rng = random.Random(seed)
            start = time.monotonic()
            adaptive_descent(
                state, Incumbent(state.g, state.cs), -1, rng,
                deadline=start + budget,
            )
            elapsed = time.monotonic() - start
            assert state.iter > 0
            per_iter.append(elapsed / state.iter)
        medians.append(statistics.median(per_iter))
    gate = 4 * 8
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    assert r1 <= gate, f"1k->2k per-iteration ratio {r1:.2f} exceeds {gate}"
    assert r2 <= gate, f"2k->4k per-iteration ratio {r2:.2f} exceeds {gate}"
    print(
        f"\n[criterion 8] PASS: per-iteration medians "
        f"{[f'{m * 1e3:.2f}ms' for m in medians]}, ratios {r1:.2f}, {r2:.2f} <= {gate}"
    )


@pytest.mark.skipif(
    not os.environ.get("MWIS_INSTANCE_DIR"),
    reason="manual large-scale check: set MWIS_INSTANCE_DIR to a directory "
    "with public instances (e.g. web-edu.metis)",
)
def test_criterion_9_large_scale_reference_values():
    """With locally provided public instances, a 1000 s run reproduces the
    known reference weight exactly (web-edu: 162434)."""
    directory = Path(os.environ["MWIS_INSTANCE_DIR"])
    candidates = [directory / "web-edu.metis", directory / "web-edu.graph"]
    path = next((p for p in candidates if p.exists()), None)
    if path is None:
        pytest.skip(f"web-edu instance not found under {directory}")
    g, ids = parse_metis(path.read_text())
    g = assign_weights_family_a(g, ids)
    result = solve(g, SolverConfig(time_limit=1000.0, seed=1))
    assert result.best_weight == 162_434
    print(f"\n[criterion 9] PASS: web-edu reached {result.best_weight}")
