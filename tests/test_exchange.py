import random
from collections import Counter

import pytest

from mwis import (
    RewardTable,
    SolutionState,
    brute_force_mwis,
    build_graph,
    composite_search,
    composite_search_loop,
    select_module,
)
from mwis.exchange import (
    EXCHANGE_MODULES,
    Outcome,
    omega_one_pass,
    run_em_module,
    run_module_a,
    run_module_b,
    two_improvement_pass,
    two_three_pass,
    update_reward,
    x0_exchange,
    xy_exchange,
)

from util import edgeless_graph, p3_151, path_graph, random_graph, star_graph


def exchange_demo_graph(b_weight: int = 3):
    """v(2), u(2), a(3), b(*); edges v-a, v-b, u-b; solution {v, u}."""
    g = build_graph(4, [(0, 2), (0, 3), (1, 3)], [2, 2, 3, b_weight])
    return g, SolutionState(g, [0, 1])


class TestOmegaOnePass:
    def test_profitable_insertion(self):
        s = SolutionState(p3_151(), [0, 2])
        assert omega_one_pass(s)
        assert set(s.cs) == {1}
        assert s.cs_weight == 5

    def test_local_optimum_returns_false(self):
        s = SolutionState(p3_151(), [1])
        assert not omega_one_pass(s)
        assert set(s.cs) == {1}

    def test_free_vertex_gets_inserted(self):
        g = edgeless_graph([4, 2])
        s = SolutionState(g, [0])
        assert omega_one_pass(s)
        assert 1 in s.cs


class TestTwoImprovementPass:
    def test_center_replaced_by_two_leaves(self):
        g = star_graph(3, [2, 2])
        s = SolutionState(g, [0])
        assert two_improvement_pass(s)
        assert set(s.cs) == {1, 2}
        assert s.cs_weight == 4

    def test_adjacent_pair_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], [3, 2, 2])
        s = SolutionState(g, [0])
        assert not two_improvement_pass(s)

    def test_light_pair_rejected(self):
        g = star_graph(3, [1, 1])
        s = SolutionState(g, [0])
        assert not two_improvement_pass(s)


class TestXyExchange:
    def test_one_one_exchange_reaches_optimum(self):
        g, s = exchange_demo_graph()
        assert xy_exchange(s, 0, 1, 1)
        assert set(s.cs) == {2, 3}
        assert s.cs_weight == 6
        assert s.cs_weight == brute_force_mwis(g)[1]

    def test_missing_tightness_two_candidate(self):
        s = SolutionState(p3_151(), [1])
        assert not xy_exchange(s, 1, 1, 1)

    def test_zero_gain_rejected(self):
        g, s = exchange_demo_graph(b_weight=1)
        # candidate set {a, b} weighs 4, evicting {v, u} weighs 4: no strict gain
        assert not xy_exchange(s, 0, 1, 1)
        assert set(s.cs) == {0, 1}

    def test_requires_solution_member(self):
        _, s = exchange_demo_graph()
        with pytest.raises(ValueError):
            xy_exchange(s, 2, 1, 1)


class TestX0Exchange:
    def test_packing_beats_center(self):
        g = star_graph(3, [1, 1, 1, 1])
        s = SolutionState(g, [0])
        assert x0_exchange(s, 0)
        assert set(s.cs) == {1, 2, 3, 4}
        assert s.cs_weight == 4

    def test_single_light_leaf_rejected(self):
        g = star_graph(3, [2])
        s = SolutionState(g, [0])
        assert not x0_exchange(s, 0)

    def test_no_candidates(self):
        g = edgeless_graph([5])
        s = SolutionState(g, [0])
        assert not x0_exchange(s, 0)


class TestTwoThreePass:
    def test_already_optimal_path(self):
        s = SolutionState(path_graph([2, 1, 2, 1, 2]), [0, 2, 4])
        assert not two_three_pass(s)

    def test_requires_all_three_additions(self):
        # {v1, v3} would be better, but the swap demands a full triple
        s = SolutionState(path_graph([1, 3, 1, 3, 1]), [0, 2, 4])
        assert not two_three_pass(s)
        assert set(s.cs) == {0, 2, 4}

    def test_empty_solution(self):
        s = SolutionState(path_graph([1, 1, 1]))
        assert not two_three_pass(s)

    def test_profitable_triple(self):
        g = path_graph([2, 3, 3, 3, 2])
        s = SolutionState(g, [1, 3])
        assert two_three_pass(s)
        assert set(s.cs) == {0, 2, 4}
        assert s.cs_weight == 7
        assert s.cs_weight == brute_force_mwis(g)[1]


class TestModuleA:
    def test_path_to_optimum(self):
        s = SolutionState(p3_151(), [0, 2])
        assert run_module_a(s)
        assert set(s.cs) == {1}

    def test_optimal_state_unchanged(self):
        s = SolutionState(p3_151(), [1])
        assert not run_module_a(s)
        assert set(s.cs) == {1}

    def test_exchange_demo(self):
        _, s = exchange_demo_graph()
        assert run_module_a(s)
        assert set(s.cs) == {2, 3}

    def test_reaches_simultaneous_local_optimum(self):
        rng = random.Random(21)
        from mwis.exchange import _xy_pass

        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 30), rng.choice([0.15, 0.3]))
            s = SolutionState(g)
            s.maximize()
            run_module_a(s)
            assert not omega_one_pass(s)
            assert not two_improvement_pass(s)
            assert not _xy_pass(s, 1, 1)
            s.check_invariants()


class TestModuleB:
    def test_star_improved_by_packing(self):
        g = star_graph(3, [1, 1, 1, 1])
        s = SolutionState(g, [0])
        assert run_module_b(s)
        assert s.cs_weight == 4

    def test_optimal_state(self):
        s = SolutionState(p3_151(), [1])
        assert not run_module_b(s)

    def test_empty_graph(self):
        g = build_graph(0, [], [])
        s = SolutionState(g)
        assert not run_module_b(s)


class TestEmModule:
    def test_one_one_module_improves(self):
        _, s = exchange_demo_graph()
        assert run_em_module(s, (1, 1))
        assert set(s.cs) == {2, 3}

    def test_three_two_module_falls_back_to_insertion(self):
        # no subset of a path neighborhood has three tight-1 plus two tight-2
        # vertices, so only the insertion neighborhood fires
        s = SolutionState(p3_151(), [0, 2])
        assert run_em_module(s, (3, 2))
        assert set(s.cs) == {1}

    def test_optimal_state(self):
        s = SolutionState(p3_151(), [1])
        assert not run_em_module(s, (1, 1))

    def test_module_catalog(self):
        assert len(EXCHANGE_MODULES) == 6
        assert set(EXCHANGE_MODULES) == {(x, y) for x in (1, 2, 3) for y in (1, 2)}


class TestRewardTable:
    def test_initial_state(self):
        t = RewardTable()
        assert t.re == [1] * 6
        assert t.sum_re == 6 == t.initial

    def test_new_best_reward(self):
        t = RewardTable()
        update_reward(t, 0, Outcome.NEW_BEST)
        assert t.re[0] == 4
        assert t.sum_re == 9

    def test_floor_on_negative(self):
        t = RewardTable()
        update_reward(t, 2, Outcome.NONE)
        assert t.re[2] == 1  # floored
        assert t.sum_re == 5  # counter still drops

    def test_alternating_rewards_return_to_start(self):
        t = RewardTable()
        update_reward(t, 1, Outcome.IMPROVED_CURRENT)
        update_reward(t, 1, Outcome.NONE)
        update_reward(t, 1, Outcome.NONE)
        assert t.sum_re == 6
        assert t.re[1] == 1

    def test_improved_current(self):
        t = RewardTable()
        update_reward(t, 3, Outcome.IMPROVED_CURRENT)
        assert t.re[3] == 3
        assert t.sum_re == 8


class TestSelectModule:
    def test_uniform_when_fresh(self):
        rng = random.Random(5)
        t = RewardTable()
        counts = Counter(select_module(t, rng) for _ in range(100_000))
        for i in range(6):
            assert counts[i] / 100_000 == pytest.approx(1 / 6, abs=0.01)

    def test_skewed_rewards(self):
        rng = random.Random(6)
        t = RewardTable()
        t.re = [5, 1, 1, 1, 1, 1]
        counts = Counter(select_module(t, rng) for _ in range(100_000))
        assert counts[0] / 100_000 == pytest.approx(0.5, abs=0.01)
        for i in range(1, 6):
            assert counts[i] / 100_000 == pytest.approx(0.1, abs=0.01)

    def test_seeded_determinism(self):
        t = RewardTable()
        a = [select_module(t, random.Random(42)) for _ in range(20)]
        b = [select_module(t, random.Random(42)) for _ in range(20)]
        assert a == b


class TestCompositeSearch:
    def test_path_to_optimum(self):
        s = SolutionState(p3_151(), [0, 2])
        best = composite_search(s, s.cs.copy(), random.Random(1))
        assert set(best) == {1}

    def test_optimal_input_terminates_quickly(self):
        s = SolutionState(p3_151(), [1])
        best = composite_search(s, s.cs.copy(), random.Random(1))
        assert set(best) == {1}
        assert set(s.cs) == {1}

    def test_deterministic_per_seed(self):
        g = random_graph(random.Random(3), 20, 0.3)
        outs = []
        for _ in range(2):
            s = SolutionState(g)
            s.maximize()
            best = composite_search(s, s.cs.copy(), random.Random(55))
            outs.append(sorted(best))
        assert outs[0] == outs[1]


class TestCompositeSearchLoop:
    def test_zero_deadline_returns_input(self):
        import time

        s = SolutionState(p3_151(), [0, 2])
        best = composite_search_loop(s, s.cs.copy(), time.monotonic(), random.Random(1))
        assert set(best) == {0, 2}

    def test_monotone_best(self):
        import time

        rng = random.Random(77)
        g = random_graph(rng, 20, 0.4)
        s = SolutionState(g)
        s.maximize()
        start_w = s.cs_weight
        best = composite_search_loop(s, s.cs.copy(), time.monotonic() + 0.2, random.Random(1))
        assert g.set_weight(best) >= start_w
        assert g.is_independent(best)

    def test_dense_instances_reach_optimum(self):
        # stronger variant of the documented behavior: a 0.15 s budget per run
        # implies the stated 1 s budget
        import time

        rng = random.Random(1414)
        g = random_graph(rng, 14, 0.5)
        _, opt = brute_force_mwis(g)
        hits = 0
        for seed in range(1, 101):
            s = SolutionState(g)
            s.maximize()
            best = composite_search_loop(
                s, s.cs.copy(), time.monotonic() + 0.15, random.Random(seed)
            )
            w = g.set_weight(best)
            assert w <= opt
            hits += w == opt
        assert hits >= 95


def _all_maximal_independent_sets(g):
    """Every maximal independent set, by exhaustive subset enumeration (n <= 10)."""
    assert g.n <= 10
    closed = []
    for v in range(g.n):
        m = 1 << v
        for u in g.adjacency[v]:
            m |= 1 << u
        closed.append(m)
    full = (1 << g.n) - 1
    out = []
    for subset in range(1 << g.n):
        members = [v for v in range(g.n) if subset >> v & 1]
        if any(subset >> u & 1 for v in members for u in g.adjacency[v]):
            continue  # not independent
        covered = 0
        for v in members:
            covered |= closed[v]
        if covered == full:
            out.append(members)
    return out


def test_composite_search_never_exceeds_optimum_from_any_start():
    # safety half: on every small graph, from every maximal start, the result
    # stays at or below the exact optimum
    from util import cycle_graph, path_graph, star_graph

    rng = random.Random(123)
    graphs = []
    for n in range(2, 10):
        weights = [rng.randint(1, 9) for _ in range(n)]
        graphs.append(path_graph(weights))
        if n >= 3:
            graphs.append(cycle_graph(weights))
        graphs.append(star_graph(weights[0], weights[1:]))
        graphs.append(random_graph(rng, n, 0.4, max_weight=9))
    for g in graphs:
        _, opt = brute_force_mwis(g)
        for start in _all_maximal_independent_sets(g):
            s = SolutionState(g, start)
            best = composite_search(s, s.cs.copy(), random.Random(1))
            assert g.set_weight(best) <= opt


def test_composite_search_solves_stars_from_any_start():
    # stars are exactly solvable from every maximal start: one direction is a
    # profitable insertion, the other a packing of the leaves
    from util import star_graph

    rng = random.Random(321)
    for n in range(2, 11):
        for _ in range(3):
            g = star_graph(rng.randint(1, 9), [rng.randint(1, 9) for _ in range(n - 1)])
            _, opt = brute_force_mwis(g)
            for start in _all_maximal_independent_sets(g):
                s = SolutionState(g, start)
                best = composite_search(s, s.cs.copy(), random.Random(1))
                assert g.set_weight(best) == opt, (g.weights, start)


def test_full_solver_exact_on_small_paths_and_cycles():
    # paths and cycles kernelize away entirely, so the solver is exact on them
    # regardless of the local-search plateaus documented below
    from mwis import SolverConfig, solve
    from util import cycle_graph, path_graph

    rng = random.Random(654)
    for n in range(2, 11):
        for _ in range(3):
            weights = [rng.randint(1, 9) for _ in range(n)]
            for g in (path_graph(weights), cycle_graph(weights) if n >= 3 else None):
                if g is None:
                    continue
                _, opt = brute_force_mwis(g)
                r = solve(g, SolverConfig(time_limit=0.3, seed=1))
                assert r.best_weight == opt
                assert r.kernel_n == 0


def test_alternation_traps_stall_without_perturbation():
    # Documented limits of one strict-improvement search: (a) a maximal set
    # whose non-members all have tightness two disables every neighborhood in
    # the catalog, and (b) escaping {1,3,5} on an unweighted 7-path needs a
    # zero-gain move, which strict improvement rejects. The full solver gets
    # all of these exactly (here through kernelization).
    from mwis import SolverConfig, solve
    from util import path_graph

    trap_cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [6, 6, 1, 3])
    s = SolutionState(trap_cycle, [0, 2])
    stalled = composite_search(s, s.cs.copy(), random.Random(1))
    assert trap_cycle.set_weight(stalled) == 7
    assert brute_force_mwis(trap_cycle)[1] == 9
    assert solve(trap_cycle, SolverConfig(time_limit=0.3, seed=1)).best_weight == 9

    trap_path = path_graph([1, 6, 8, 6, 1])
    s = SolutionState(trap_path, [0, 2, 4])
    stalled = composite_search(s, s.cs.copy(), random.Random(1))
    assert trap_path.set_weight(stalled) == 10
    assert brute_force_mwis(trap_path)[1] == 12
    assert solve(trap_path, SolverConfig(time_limit=0.3, seed=1)).best_weight == 12

    plateau_path = path_graph([1] * 7)
    s = SolutionState(plateau_path, [1, 3, 5])
    stalled = composite_search(s, s.cs.copy(), random.Random(1))
    assert plateau_path.set_weight(stalled) == 3
    assert brute_force_mwis(plateau_path)[1] == 4
    assert solve(plateau_path, SolverConfig(time_limit=0.3, seed=1)).best_weight == 4


def test_passes_preserve_independence_under_fuzz():
    rng = random.Random(2718)
    for _ in range(25):
        g = random_graph(rng, rng.randint(5, 35), rng.choice([0.1, 0.25, 0.4]))
        s = SolutionState(g)
        s.maximize()
        for _ in range(10):
            run_module_a(s)
            run_em_module(s, EXCHANGE_MODULES[rng.randrange(6)])
            run_module_b(s)
            s.check_invariants()
