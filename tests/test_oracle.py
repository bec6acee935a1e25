import random

import pytest

from mwis import brute_force_mwis, build_graph

from util import c4_3131, edgeless_graph, exhaustive_mwis, p3_151, random_graph


def test_path_optimum():
    best, weight = brute_force_mwis(p3_151())
    assert weight == 5
    assert best == {1}


def test_cycle_optimum():
    best, weight = brute_force_mwis(c4_3131())
    assert weight == 6
    assert best == {0, 2}


def test_edgeless_takes_everything():
    best, weight = brute_force_mwis(edgeless_graph([1, 2, 3]))
    assert weight == 6
    assert best == {0, 1, 2}


def test_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 3])
    best, weight = exhaustive_mwis(g)
    assert weight == 3
    assert best == {2}


def test_empty_graph():
    g = build_graph(0, [], [])
    assert exhaustive_mwis(g) == (set(), 0)
    assert brute_force_mwis(g) == (set(), 0)


def test_brute_force_guard():
    g = edgeless_graph([1] * 33)
    with pytest.raises(ValueError):
        brute_force_mwis(g)


def test_exhaustive_guard():
    g = edgeless_graph([1] * 21)
    with pytest.raises(ValueError):
        exhaustive_mwis(g)


def test_lexicographic_tie_break():
    # Two disjoint edges with equal weights: four optimal sets, {0, 2} smallest.
    g = build_graph(4, [(0, 1), (2, 3)], [5, 5, 5, 5])
    bset, bw = brute_force_mwis(g)
    eset, ew = exhaustive_mwis(g)
    assert bw == ew == 10
    assert bset == eset == {0, 2}


def test_oracles_agree_on_random_corpus():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        bset, bw = brute_force_mwis(g)
        eset, ew = exhaustive_mwis(g)
        assert bw == ew
        assert bset == eset
        assert g.is_independent(bset)
        assert g.set_weight(bset) == bw
