import random

import pytest

from mwis import Incumbent, SolutionState

from util import c4_3131, edgeless_graph, p3_151, random_graph, random_maximal_is


class TestNewState:
    def test_path_with_endpoints(self):
        s = SolutionState(p3_151(), [0, 2])
        assert s.cs_weight == 2
        assert s.tightness[1] == 2
        assert s.loss(1) == -3
        assert len(s.free) == 0

    def test_empty_initial(self):
        s = SolutionState(p3_151())
        assert s.free == {0, 1, 2}
        for v in range(3):
            assert s.loss(v) == -s.g.weights[v]
            assert s.freq[v] == 0 and s.change[v] == 0 and s.age(v) == 0

    def test_cycle(self):
        s = SolutionState(c4_3131(), [0, 2])
        assert s.cs_weight == 6
        assert s.tightness[1] == 2
        assert s.tightness[3] == 2

    def test_rejects_dependent_set(self):
        with pytest.raises(ValueError, match="independent"):
            SolutionState(p3_151(), [0, 1])

    def test_repeated_member_counts_once(self):
        s = SolutionState(p3_151(), [0, 2, 0])
        assert list(s.cs) == [0, 2]
        assert s.cs_weight == 2
        assert s.tightness[1] == 2
        s.check_invariants()


class TestAddRemove:
    def test_add_updates_neighbors(self):
        s = SolutionState(p3_151())
        s.add_vertex(1)
        assert s.cs_weight == 5
        assert s.tightness[0] == 1
        assert s.tightness[2] == 1
        assert len(s.free) == 0

    def test_add_second_free_vertex(self):
        s = SolutionState(p3_151())
        s.add_vertex(0)
        s.add_vertex(2)
        assert s.cs_weight == 2

    def test_add_tight_vertex_fails(self):
        s = SolutionState(p3_151(), [0])
        with pytest.raises(ValueError, match="not free"):
            s.add_vertex(1)

    def test_add_member_fails(self):
        s = SolutionState(p3_151(), [0])
        with pytest.raises(ValueError, match="already"):
            s.add_vertex(0)

    def test_remove_frees_pool(self):
        s = SolutionState(p3_151(), [1])
        s.remove_vertex(1)
        assert s.cs_weight == 0
        assert s.free == {0, 1, 2}

    def test_remove_on_cycle(self):
        s = SolutionState(c4_3131(), [0, 2])
        s.remove_vertex(0)
        assert s.tightness[1] == 1
        assert s.tightness[3] == 1

    def test_remove_nonmember_fails(self):
        s = SolutionState(p3_151())
        with pytest.raises(ValueError, match="not in"):
            s.remove_vertex(0)

    def test_visit_statistics(self):
        s = SolutionState(p3_151())
        s.add_vertex(0)
        s.remove_vertex(0)
        s.add_vertex(0)
        assert s.freq[0] == 3
        assert s.change[0] == 1  # two adds, one remove


class TestInsertWithRemoval:
    def test_eviction_gain_matches_loss(self):
        s = SolutionState(p3_151(), [0, 2])
        loss_before = s.loss(1)
        removed = s.insert_with_removal(1)
        assert set(removed) == {0, 2}
        assert set(s.cs) == {1}
        assert s.cs_weight == 5
        assert s.cs_weight == 2 - loss_before

    def test_free_vertex_insert_is_plain_add(self):
        s = SolutionState(p3_151())
        removed = s.insert_with_removal(1)
        assert len(removed) == 0
        assert set(s.cs) == {1}

    def test_cycle_eviction(self):
        s = SolutionState(c4_3131(), [1, 3])
        removed = s.insert_with_removal(0)
        assert set(removed) == {1, 3}
        assert s.cs_weight == 3

    def test_member_rejected(self):
        s = SolutionState(p3_151(), [1])
        with pytest.raises(ValueError):
            s.insert_with_removal(1)


class TestMaximize:
    def test_takes_heaviest_first(self):
        s = SolutionState(p3_151())
        added = s.maximize()
        assert added == 1
        assert set(s.cs) == {1}

    def test_already_maximal(self):
        s = SolutionState(p3_151(), [1])
        assert s.maximize() == 0

    def test_cycle_from_empty(self):
        s = SolutionState(c4_3131())
        s.maximize()
        assert s.cs_weight == 6
        assert set(s.cs) == {0, 2}

    def test_never_decreases_weight_and_clears_pool(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 40), 0.2)
            s = SolutionState(g)
            for v in random_maximal_is(rng, g)[: g.n // 3]:
                if s.tightness[v] == 0 and v not in s.cs:
                    s.add_vertex(v)
            before = s.cs_weight
            s.maximize()
            assert s.cs_weight >= before
            assert len(s.free) == 0
            s.check_invariants()


class TestTick:
    def test_stagnation_counter(self):
        s = SolutionState(p3_151())
        for _ in range(3):
            s.tick(False)
        assert s.uiter == 3
        assert all(s.age(v) == 3 for v in range(3))

    def test_improvement_resets(self):
        s = SolutionState(p3_151())
        s.tick(False)
        s.tick(False)
        s.tick(True)
        assert s.uiter == 0
        assert s.iter == 3

    def test_visit_resets_age(self):
        s = SolutionState(p3_151())
        s.tick(False)
        s.add_vertex(1)
        s.tick(False)
        assert s.age(1) == 1
        assert s.age(0) == 2


class TestResetSolution:
    def test_keeps_statistics(self):
        s = SolutionState(p3_151())
        s.add_vertex(1)
        s.tick(False)
        s.reset_solution([0, 2])
        assert set(s.cs) == {0, 2}
        assert s.freq[1] == 1
        assert s.iter == 1
        s.check_invariants()

    def test_rejects_dependent(self):
        s = SolutionState(p3_151())
        with pytest.raises(ValueError):
            s.reset_solution([0, 1])


def test_randomized_operations_stay_consistent():
    rng = random.Random(31337)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 50), rng.choice([0.05, 0.15, 0.3]))
        s = SolutionState(g)
        balance = [0] * g.n  # adds minus removes per vertex
        for _ in range(400):
            op = rng.random()
            if op < 0.35 and len(s.free) > 0:
                v = rng.choice(sorted(s.free))
                s.add_vertex(v)
                balance[v] += 1
            elif op < 0.6 and len(s.cs) > 0:
                v = rng.choice(sorted(s.cs))
                s.remove_vertex(v)
                balance[v] -= 1
            elif op < 0.8 and len(s.cs) < g.n:
                v = rng.choice([u for u in range(g.n) if u not in s.cs])
                expected = s.cs_weight - s.loss(v)
                for u in s.insert_with_removal(v):
                    balance[u] -= 1
                balance[v] += 1
                assert s.cs_weight == expected
            elif op < 0.9:
                before = set(s.cs)
                s.maximize()
                for v in s.cs:
                    if v not in before:
                        balance[v] += 1
            else:
                s.tick(rng.random() < 0.2)
        s.check_invariants()
        assert [s.change[v] for v in range(g.n)] == balance


class TestIncumbent:
    def test_starts_from_members_set_and_weight(self):
        inc = Incumbent(p3_151(), [2, 0])
        assert type(inc.best) is set
        assert inc.best == {0, 2}
        assert inc.weight == 2

    def test_offer_banks_only_strictly_heavier(self):
        g = p3_151()
        seen: list[int] = []
        inc = Incumbent(g, [0, 2], seen.append)
        s = SolutionState(g, [1])
        assert inc.offer(s)
        assert list(inc.best) == [1] and inc.weight == 5 and seen == [5]
        s.reset_solution([0, 2])
        assert not inc.offer(s)
        s.reset_solution([1])
        assert not inc.offer(s)  # equal weight is not an improvement
        assert seen == [5]

    def test_banked_set_is_a_copy(self):
        g = p3_151()
        inc = Incumbent(g)
        s = SolutionState(g, [1])
        inc.offer(s)
        s.remove_vertex(1)
        assert list(inc.best) == [1]
