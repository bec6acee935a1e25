import logging
import random

import pytest

from mwis import (
    ParseError,
    assign_weights_family_a,
    assign_weights_family_b,
    parse_edgelist,
    parse_metis,
    to_metis,
)
from mwis.formats import load_graph

from util import random_gnm_graph, random_graph


class TestParseMetis:
    def test_weighted_path(self):
        g, ids = parse_metis("3 2 10\n1 2\n5 1 3\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert g.weights == [1, 5, 1]
        assert g.adjacency == [[1], [0, 2], [1]]
        assert ids == [1, 2, 3]

    def test_unweighted_edge(self):
        g, _ = parse_metis("2 1 0\n2\n1\n")
        assert g.m == 1
        assert g.weights == [1, 1]

    def test_two_token_header(self):
        g, _ = parse_metis("2 1\n2\n1\n")
        assert g.m == 1

    def test_comments_and_blank_tail(self):
        g, _ = parse_metis("% a comment\n3 2 10\n% mid comment\n1 2\n5 1 3\n1 2\n\n\n")
        assert g.weights == [1, 5, 1]

    def test_isolated_vertex_blank_line(self):
        g, _ = parse_metis("2 0 0\n\n\n")
        assert g.n == 2 and g.m == 0

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ParseError, match="reciprocal"):
            parse_metis("2 1 0\n2\n\n")

    def test_line_count_mismatch(self):
        with pytest.raises(ParseError, match="vertex lines"):
            parse_metis("3 1 0\n2\n1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="edges"):
            parse_metis("2 5 0\n2\n1\n")

    def test_non_integer_token_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_metis("2 1 0\n2\nx\n")

    def test_unsupported_fmt(self):
        with pytest.raises(ParseError, match="fmt"):
            parse_metis("2 1 1\n2\n1\n")

    def test_neighbor_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_metis("2 1 0\n3\n1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_metis("2 2 0\n1 2\n1\n")

    def test_missing_weight(self):
        with pytest.raises(ParseError, match="weight"):
            parse_metis("1 0 10\n\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="line 3: vertex weight must be positive"):
            parse_metis("2 1 10\n1 2\n0 1\n")

    def test_neighbor_zero_rejected(self):
        with pytest.raises(ParseError, match="line 2: neighbor 0 out of range 1..2"):
            parse_metis("2 1 0\n0 2\n1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # Vertex 1 names 3; vertex 3 (line 4) leaves it out.
            ("3 2 0\n2 3\n1\n\n", "line 2: vertex 3 missing reciprocal neighbor 1"),
            # Vertex 3 names 1; vertex 1 (line 2) leaves it out.
            ("3 2 0\n2\n1\n1\n", "line 4: vertex 1 missing reciprocal neighbor 3"),
            # Both directions broken: the smallest naming vertex is reported.
            ("4 2 0\n\n3\n\n1\n", "line 3: vertex 3 missing reciprocal neighbor 2"),
        ],
    )
    def test_missing_reciprocal_reports_naming_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_metis(text)

    def test_repeated_neighbor_collapses(self):
        g, _ = parse_metis("3 2 10\n4 2 2\n5 1 3 1\n6 2\n")
        assert g.m == 2
        assert g.adjacency == [[1], [0, 2], [1]]
        assert g.weights == [4, 5, 6]
        with pytest.raises(ParseError, match="header claims 3 edges, adjacency lists encode 2"):
            parse_metis("3 3 0\n2 2\n1 3 1\n2\n")


class TestParseEdgelist:
    def test_path_shape(self):
        g, ids = parse_edgelist("0 1\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert ids == [0, 1, 2]
        assert g.weights == [1, 1, 1]

    def test_duplicate_edges_collapse(self):
        g, _ = parse_edgelist("0 1\n1 0\n")
        assert g.m == 1

    def test_self_loop_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mwis.formats"):
            g, ids = parse_edgelist("0 0\n0 1\n")
        assert g.m == 1
        assert any("self-loop" in rec.message for rec in caplog.records)
        assert ids == [0, 1]

    def test_first_appearance_renumbering(self):
        g, ids = parse_edgelist("# comment\n30 10\n10 20\n")
        assert ids == [30, 10, 20]
        assert g.adjacency[1] == [0, 2]  # vertex "10" touches "30" and "20"

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edgelist("0 1\n0 1 2\n")

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_edgelist("-1 0\n")


class TestRoundTrip:
    def test_emit_parse_round_trip(self):
        rng = random.Random(64)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 30), 0.25)
            h, _ = parse_metis(to_metis(g))
            assert h.n == g.n and h.m == g.m
            assert h.adjacency == g.adjacency
            assert h.weights == g.weights

    def test_round_trip_beyond_small_int_cache(self):
        # Ids above 256 are distinct int objects in CPython, unlike -5..256.
        g = random_gnm_graph(random.Random(65), 1200, 4000)
        h, ids = parse_metis(to_metis(g))
        assert (h.n, h.m) == (g.n, g.m)
        assert h.adjacency == g.adjacency
        assert h.weights == g.weights
        assert ids == list(range(1, 1201))


class TestWeightFamilies:
    def test_family_a_formula(self):
        g, ids = parse_edgelist("0 1\n")
        ga = assign_weights_family_a(g, [1, 200])
        assert ga.weights == [1, 200]
        gb = assign_weights_family_a(g, [201, 350])
        assert gb.weights == [1, 150]

    def test_family_a_range(self):
        g, ids = parse_metis(to_metis(random_graph(random.Random(1), 500, 0.01)))
        ga = assign_weights_family_a(g, ids)
        assert all(1 <= w <= 200 for w in ga.weights)
        assert ga.weights[:3] == [1, 2, 3]

    def test_family_a_id_count_mismatch(self):
        g, _ = parse_edgelist("0 1\n")
        with pytest.raises(ValueError):
            assign_weights_family_a(g, [1])

    def test_family_b_deterministic_per_seed(self):
        g = random_graph(random.Random(2), 50, 0.1)
        a = assign_weights_family_b(g, 7)
        b = assign_weights_family_b(g, 7)
        c = assign_weights_family_b(g, 8)
        assert a.weights == b.weights
        assert a.weights != c.weights

    def test_family_b_range_and_mean(self):
        from util import edgeless_graph

        g = edgeless_graph([1] * 100_000)
        gb = assign_weights_family_b(g, 1)
        assert all(1 <= w <= 200 for w in gb.weights)
        assert 99 <= sum(gb.weights) / g.n <= 102

    def test_weight_assignment_preserves_structure(self):
        g, ids = parse_metis("3 2 10\n9 2\n9 1 3\n9 2\n")
        ga = assign_weights_family_a(g, ids)
        assert ga.adjacency == g.adjacency
        assert g.weights == [9, 9, 9]  # original graph untouched


class TestLoadGraph:
    @pytest.fixture
    def p3_file(self, tmp_path):
        path = tmp_path / "p3.metis"
        path.write_text("3 2 10\n1 2\n5 1 3\n1 2\n")
        return str(path)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("metis", "family-b", None), "need a seed"),
            (("metis", "famly-a"), "unknown weight mode"),
            (("metis", "file", 3), "takes no seed"),
            (("foo",), "unknown format"),
        ],
    )
    def test_bad_source_rejected(self, p3_file, args, message):
        with pytest.raises(ValueError, match=message):
            load_graph(p3_file, *args)
