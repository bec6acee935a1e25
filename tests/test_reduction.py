import copy
import random

import pytest

from mwis import (
    brute_force_mwis,
    build_graph,
    lift_solution,
    reduce_graph,
    reduction_construction,
)
from mwis.reduction import _Reducer, identity_kernel

from util import (
    ReferenceReducer,
    c4_3131,
    cube_graph,
    p3_151,
    path_graph,
    random_gnm_graph,
    random_graph,
    reference_reduce_graph,
    star_graph,
)


def test_path_reduces_to_nothing():
    k = reduce_graph(p3_151())
    assert k.graph.n == 0
    assert k.offset == 5
    lifted = lift_solution(k, [])
    assert set(lifted) == {1}


def test_singleton_taken():
    k = reduce_graph(build_graph(1, [], [7]))
    assert k.graph.n == 0
    assert k.offset == 7
    assert set(lift_solution(k, [])) == {0}


def test_cycle_kernel_preserves_optimum():
    g = c4_3131()
    k = reduce_graph(g)
    _, kernel_opt = brute_force_mwis(k.graph)
    assert kernel_opt + k.offset == 6


def test_fold_lifts_to_path_ends():
    # Path 4-5-4: middle vertex folds away; the optimum is both endpoints.
    g = path_graph([4, 5, 4])
    k = reduce_graph(g)
    lifted = lift_solution(k, brute_force_mwis(k.graph)[0])
    assert set(lifted) == {0, 2}
    assert g.set_weight(lifted) == 8
    assert g.set_weight(lifted) == brute_force_mwis(g)[1]


def test_zero_time_cap_is_identity():
    g = c4_3131()
    k = reduce_graph(g, time_cap=0)
    assert k.graph.n == g.n
    assert k.graph.adjacency == g.adjacency
    assert k.offset == 0
    assert set(lift_solution(k, [0, 2])) == {0, 2}


def test_identity_kernel_roundtrip():
    g = c4_3131()
    k = identity_kernel(g)
    assert set(lift_solution(k, [1, 3])) == {1, 3}


def test_deferred_degree_one_resolution():
    # Star center 3 with leaves 2 and 10: the light leaf defers on the center,
    # the heavy leaf wins, so the deferred leaf comes back in the lift.
    g = star_graph(3, [2, 10])
    k = reduce_graph(g)
    assert k.graph.n == 0
    lifted = lift_solution(k, [])
    assert set(lifted) == {1, 2}
    assert g.set_weight(lifted) == 12 == brute_force_mwis(g)[1]


def test_lift_rejects_dependent_solution():
    g = c4_3131()
    k = reduce_graph(g, time_cap=0)
    with pytest.raises(ValueError, match="independent"):
        lift_solution(k, [0, 1])


def test_lift_rejects_out_of_range_vertex():
    g = c4_3131()
    k = reduce_graph(g, time_cap=0)
    with pytest.raises(ValueError):
        lift_solution(k, [17])


def test_exactness_on_random_corpus():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        opt_set, opt_w = brute_force_mwis(g)
        k = reduce_graph(g)
        k_set, k_w = brute_force_mwis(k.graph)
        assert k_w + k.offset == opt_w
        lifted = lift_solution(k, k_set)
        assert g.is_independent(lifted)
        assert g.set_weight(lifted) == opt_w


def test_idempotence():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 24)
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.3]))
        k = reduce_graph(g)
        again = reduce_graph(k.graph)
        assert again.graph.n == k.graph.n
        assert again.offset == 0
        assert again.trace == []


def test_offset_counts_weight_changes():
    # Edge (2)-(5): light endpoint defers, then the survivor is isolated.
    g = build_graph(2, [(0, 1)], [2, 5])
    k = reduce_graph(g)
    assert k.graph.n == 0
    assert k.offset == 5
    assert set(lift_solution(k, [])) == {1}


def test_matches_always_sweeping_reference():
    rng = random.Random(77)
    graphs = []
    for max_weight in (1, 3, 200):
        for _ in range(40):
            n = rng.randint(1, 60)
            graphs.append(random_graph(rng, n, rng.choice([0.03, 0.08, 0.2, 0.5]), max_weight))
        graphs.append(random_gnm_graph(rng, 500, 1500, max_weight))
        graphs.append(random_graph(rng, 120, 0.3, max_weight))
    graphs.append(cube_graph())
    for g in graphs:
        k = reduce_graph(g)
        ref = reference_reduce_graph(g)
        assert k.graph.adjacency == ref.graph.adjacency
        assert k.graph.weights == ref.graph.weights
        assert (k.graph.n, k.graph.m) == (ref.graph.n, ref.graph.m)
        assert k.offset == ref.offset
        assert k.trace == ref.trace
        assert k.orig_map == ref.orig_map
        assert k.source_n == ref.source_n


def test_irreducible_graph_kernel_is_the_graph():
    g = cube_graph()
    k = reduce_graph(g)
    assert k.graph is g
    assert k.offset == 0 and k.trace == []
    assert k.orig_map == list(range(g.n))
    even = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    assert lift_solution(k, even) == even
    assert g.set_weight(lift_solution(k, even)) == 4 == brute_force_mwis(g)[1]


def test_sweep_skipped_when_no_rule_fires(monkeypatch):
    calls = []
    run_one = _Reducer._run_one_rule

    def counting(self, r, deadline):
        calls.append(r)
        return run_one(self, r, deadline)

    monkeypatch.setattr(_Reducer, "_run_one_rule", counting)
    _Reducer(cube_graph()).run_rules((0, 1, 2, 3, 4))
    assert calls == [0, 1, 2, 3, 4]  # one pass, no verification sweep
    calls.clear()
    _Reducer(p3_151()).run_rules((0, 1, 2, 3, 4))
    assert calls[-5:] == [0, 1, 2, 3, 4] and len(calls) > 5  # the sweep still runs


def test_matches_set_reducer():
    rng = random.Random(31)
    graphs = []
    for max_weight in (1, 3, 200):
        for _ in range(60):
            n = rng.randint(1, 80)
            graphs.append(random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.2, 0.5]), max_weight))
        graphs.append(random_gnm_graph(rng, 2000, 4000, max_weight))
        graphs.append(random_gnm_graph(rng, 300, 3000, max_weight))
    kinds = set()
    for g in graphs:
        k = reduce_graph(g)
        ref = ReferenceReducer(g)
        ref.run_rules((0, 1, 2, 3, 4), deadline=None)
        expected = ref.kernel()
        assert k.graph.adjacency == expected.graph.adjacency
        assert k.graph.weights == expected.graph.weights
        assert (k.graph.n, k.graph.m) == (expected.graph.n, expected.graph.m)
        assert k.offset == expected.offset
        assert k.trace == expected.trace
        assert k.orig_map == expected.orig_map
        kinds.update(entry[0] for entry in k.trace)
    assert kinds == {"take", "defer", "drop", "fold"}


def test_input_graph_is_not_modified():
    rng = random.Random(8)
    folds = 0
    for n in (20, 60, 200, 1000):
        for _ in range(5):
            g = random_gnm_graph(rng, n, 3 * n // 2, 200)
            adjacency, weights = copy.deepcopy(g.adjacency), list(g.weights)
            k = reduce_graph(g)
            folds += sum(entry[0] == "fold" for entry in k.trace)
            reduction_construction(g)
            assert g.adjacency == adjacency
            assert g.weights == weights
            assert (g.n, g.m) == (n, 3 * n // 2)
    assert folds > 0
