import random

import pytest

from mwis import VertexSet, build_graph
from mwis.graph import induced_subgraph

from util import c4_3131, p3_151, random_graph


class TestBuildGraph:
    def test_path(self):
        g = p3_151()
        assert g.n == 3
        assert g.m == 2
        assert g.adjacency == [[1], [0, 2], [1]]
        assert g.weights == [1, 5, 1]

    def test_singleton(self):
        g = build_graph(1, [], [7])
        assert g.n == 1
        assert g.m == 0
        assert g.adjacency == [[]]

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)], [3, 1, 3, 1])
        assert g.m == 4
        assert g.adjacency == [[1, 3], [0, 2], [1, 3], [0, 2]]

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 2)], [1, 1])

    def test_non_positive_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            build_graph(2, [(0, 1)], [1, 0])

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            build_graph(3, [(0, 1)], [1, 1])

    def test_self_loops_dropped(self):
        g = build_graph(2, [(0, 0), (0, 1)], [1, 1])
        assert g.m == 1
        assert g.adjacency[0] == [1]


class TestInducedSubgraph:
    def test_path_endpoints(self):
        sub, old_to_new, new_to_old = induced_subgraph(p3_151(), [0, 2])
        assert sub.n == 2
        assert sub.m == 0
        assert new_to_old == [0, 2]
        assert sub.weights == [1, 1]

    def test_cycle_minus_vertex_is_path(self):
        sub, _, _ = induced_subgraph(c4_3131(), [0, 1, 2])
        assert sub.n == 3
        assert sub.m == 2
        assert sub.adjacency == [[1], [0, 2], [1]]

    def test_identity(self):
        g = c4_3131()
        sub, old_to_new, new_to_old = induced_subgraph(g, range(4))
        assert sub.adjacency == g.adjacency
        assert sub.weights == g.weights
        assert new_to_old == [0, 1, 2, 3]
        assert old_to_new == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(p3_151(), [0, 9])

    def test_round_trip_preserves_weights_and_adjacency(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 30), 0.3)
            keep = [v for v in range(g.n) if rng.random() < 0.6]
            sub, old_to_new, new_to_old = induced_subgraph(g, keep)
            for new, old in enumerate(new_to_old):
                assert sub.weights[new] == g.weights[old]
                back = {new_to_old[u] for u in sub.adjacency[new]}
                expected = {u for u in g.adjacency[old] if u in old_to_new}
                assert back == expected
                assert sub.adjacency[new] == sorted(sub.adjacency[new])


def test_vertexset_is_an_insertion_ordered_dict():
    s = VertexSet([5, 1, 3, 1])
    assert type(s) is dict
    assert list(s) == [5, 1, 3]
