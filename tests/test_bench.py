import csv
import io
import json
import weakref

import pytest

from mwis.bench import (
    SOLVER_KEYS,
    BenchRow,
    ConfigError,
    InstanceSpec,
    load_bench_spec,
    parse_weight_mode,
    render_report,
    run_benchmark,
    summarize,
)
from mwis.formats import load_graph
from mwis.graph import Graph
from mwis.solver import SolverConfig, solve

P3_METIS = "3 2 10\n1 2\n5 1 3\n1 2\n"


def solve_interrupted_on_seed_3(g, cfg):
    """`solve`, except that the run with seed 3 is interrupted. Module level,
    so that worker processes can unpickle it."""
    if cfg.seed == 3:
        raise KeyboardInterrupt
    return solve(g, cfg)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.metis"
    path.write_text(P3_METIS)
    return str(path)


class TestParseWeightMode:
    def test_file(self):
        assert parse_weight_mode("file") == ("file", None)

    def test_family_a(self):
        assert parse_weight_mode("family-a") == ("family-a", None)

    def test_family_b_with_seed(self):
        assert parse_weight_mode("family-b:7") == ("family-b", 7)

    def test_family_b_missing_seed(self):
        with pytest.raises(ConfigError):
            parse_weight_mode("family-b")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_weight_mode("famlyb:1")

    def test_seed_on_seedless_mode(self):
        with pytest.raises(ConfigError):
            parse_weight_mode("file:3")


class TestInstanceSpec:
    def test_defaults_merge(self):
        specs = load_bench_spec(
            json.dumps(
                {
                    "defaults": {"time_limit": 0.5, "seeds": [1, 2]},
                    "instances": [{"path": "a.metis"}, {"path": "b.metis", "seeds": [9]}],
                }
            )
        )
        assert specs[0].config.time_limit == 0.5
        assert specs[0].seeds == [1, 2]
        assert specs[1].seeds == [9]
        assert specs[0].name == "a"

    def test_unset_keys_take_the_dataclass_defaults(self):
        assert InstanceSpec.from_dict({"path": "x.metis"}) == InstanceSpec("x.metis")

    def test_seeds_from_defaults_are_copied_per_entry(self):
        specs = load_bench_spec(
            json.dumps({"defaults": {"seeds": [4, 5]}, "instances": [{"path": "a"}, {"path": "b"}]})
        )
        assert specs[0].seeds == specs[1].seeds == [4, 5]
        assert specs[0].seeds is not specs[1].seeds

    def test_bare_list_spec(self):
        specs = load_bench_spec(json.dumps([{"path": "x.metis", "weights": "family-a"}]))
        assert specs[0].weight_mode == "family-a"

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            InstanceSpec(path="x", seeds=[])

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            load_bench_spec("{not json")

    def test_missing_path(self):
        with pytest.raises(ConfigError):
            load_bench_spec(json.dumps([{"format": "metis"}]))

    def test_bad_time_limit(self):
        with pytest.raises(ConfigError):
            load_bench_spec(json.dumps([{"path": "x", "time_limit": 0}]))

    def test_nan_time_limit(self):
        with pytest.raises(ConfigError):
            load_bench_spec(json.dumps([{"path": "x", "time_limit": float("nan")}]))

    def test_reduce_cap_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'reduce_cap'"):
            load_bench_spec(json.dumps([{"path": "x", "reduce_cap": 30}]))

    def test_solver_keys_are_the_config_fields_but_seed(self):
        assert SOLVER_KEYS == ("time_limit", "no_reduce")

    def test_solver_keys_build_the_config(self):
        entry = {"path": "x", "time_limit": 2, "no_reduce": True}
        assert load_bench_spec(json.dumps([entry]))[0].config == SolverConfig(
            time_limit=2, no_reduce=True
        )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("no_reduce", "false"),
            ("no_reduce", 0),
            ("seeds", "12"),
            ("seeds", ["1", "2"]),
            ("seeds", [1.0]),
            ("seeds", [True]),
            ("time_limit", "5"),
            ("time_limit", True),
            ("name", 5),
            ("format", ["metis"]),
        ],
    )
    def test_wrong_json_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_bench_spec(json.dumps([{"path": "x", key: value}]))

    @pytest.mark.parametrize(
        "spec", [["x.metis"], {"defaults": [1], "instances": [{"path": "x"}]}]
    )
    def test_entries_must_be_objects(self, spec):
        with pytest.raises(ConfigError, match="JSON objects"):
            load_bench_spec(json.dumps(spec))

    def test_wrong_json_type_in_defaults_rejected(self):
        spec = {"defaults": {"time_limit": "5"}, "instances": [{"path": "x"}]}
        with pytest.raises(ConfigError, match="time_limit"):
            load_bench_spec(json.dumps(spec))

    def test_unknown_entry_key_rejected(self):
        with pytest.raises(ConfigError, match="instance x.metis: unknown key 'time_limt'"):
            load_bench_spec(json.dumps([{"path": "x.metis", "time_limt": 5}]))

    def test_unknown_defaults_key_rejected(self):
        spec = {"defaults": {"seed": [1]}, "instances": [{"path": "x.metis"}]}
        with pytest.raises(ConfigError, match="instance x.metis: unknown key 'seed' in defaults"):
            load_bench_spec(json.dumps(spec))

    @pytest.mark.parametrize(
        "kwargs",
        [{"fmt": "foo"}, {"weight_mode": "famly-a"}, {"weight_mode": "family-b"}],
    )
    def test_bad_source_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="instance x"):
            InstanceSpec(path="x", **kwargs)


class TestRunBenchmark:
    def test_rows_per_seed_plus_summary(self, p3_file):
        specs = [
            InstanceSpec(path=p3_file, seeds=[1, 2, 3, 4, 5], config=SolverConfig(time_limit=0.1))
        ]
        out = io.StringIO()
        rows = run_benchmark(specs, out)
        records = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert len(records) == 5
        assert all(r["weight"] == "5" for r in records)
        assert [r["seed"] for r in records] == ["1", "2", "3", "4", "5"]
        assert rows[0].max_w == 5
        assert rows[0].avg_w == 5.0
        summary = summarize(rows)
        assert summary["count"] == 1
        assert summary["instances"][0]["max_w"] == 5

    def test_deterministic_rows(self, p3_file):
        def run():
            out = io.StringIO()
            spec = InstanceSpec(path=p3_file, seeds=[1, 2], config=SolverConfig(time_limit=0.1))
            run_benchmark([spec], out)
            return out.getvalue()

        assert run() == run()

    def test_unreadable_instance_marks_na_and_continues(self, p3_file, tmp_path):
        missing = str(tmp_path / "nope.metis")
        specs = [
            InstanceSpec(path=missing, seeds=[1], config=SolverConfig(time_limit=0.1)),
            InstanceSpec(path=p3_file, seeds=[1], config=SolverConfig(time_limit=0.1)),
        ]
        out = io.StringIO()
        rows = run_benchmark(specs, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[1].startswith("nope,N/A")
        assert rows[0].error is not None
        assert rows[1].max_w == 5

    def test_family_weights_applied(self, tmp_path):
        path = tmp_path / "p3.metis"
        path.write_text("3 2 0\n2\n1 3\n2\n")
        spec = InstanceSpec(
            path=str(path), weight_mode="family-a", seeds=[1], config=SolverConfig(time_limit=0.1)
        )
        out = io.StringIO()
        rows = run_benchmark([spec], out)
        # family-a weights are 1,2,3: optimum is both endpoints (1 + 3)
        assert rows[0].max_w == 4

    def test_worker_pool_matches_sequential(self, p3_file):
        for seeds in ([1, 2], [3, 1, 2]):
            specs = [InstanceSpec(path=p3_file, seeds=seeds, config=SolverConfig(time_limit=0.1))]
            seq = io.StringIO()
            par = io.StringIO()
            rows_seq = run_benchmark(specs, seq)
            rows_par = run_benchmark(specs, par, workers=2)
            # time_to_best is wall-clock time, so it may differ between the runs
            # in its last digit; every other column must match exactly.
            recs_seq = list(csv.DictReader(io.StringIO(seq.getvalue())))
            recs_par = list(csv.DictReader(io.StringIO(par.getvalue())))
            for rec in recs_seq + recs_par:
                assert 0.0 <= float(rec.pop("time_to_best")) <= specs[0].config.time_limit
            assert recs_seq == recs_par
            # Both paths keep the spec's seed order.
            assert [int(rec["seed"]) for rec in recs_par] == seeds
            assert [run.seed for run in rows_par[0].runs] == seeds
            assert rows_seq[0].max_w == rows_par[0].max_w


    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_keeps_finished_rows(self, p3_file, monkeypatch, workers):
        monkeypatch.setattr("mwis.bench.solve", solve_interrupted_on_seed_3)
        specs = [InstanceSpec(path=p3_file, seeds=[1, 2, 3], config=SolverConfig(time_limit=0.1))]
        out = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(specs, out, workers=workers)
        records = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert [(r["seed"], r["weight"]) for r in records] == [("1", "5"), ("2", "5")]

    def test_one_graph_held_at_a_time(self, p3_file, monkeypatch):
        class WeakGraph(Graph):
            __slots__ = ("__weakref__",)

        loaded = []

        def load_then_check(*args):
            g, ids = load_graph(*args)
            g = WeakGraph(g.n, g.adjacency, g.weights, g.m)
            loaded.append(weakref.ref(g))
            # Every earlier instance's graph has been dropped.
            assert all(ref() is None for ref in loaded[:-1])
            return g, ids

        monkeypatch.setattr("mwis.bench.load_graph", load_then_check)
        spec = InstanceSpec(path=p3_file, seeds=[1, 2], config=SolverConfig(time_limit=0.1))
        run_benchmark([spec, spec, spec], io.StringIO())
        assert len(loaded) == 3


class TestReport:
    def test_renders_aggregated_table(self, p3_file):
        out = io.StringIO()
        spec = InstanceSpec(path=p3_file, seeds=[1, 2], config=SolverConfig(time_limit=0.1))
        run_benchmark([spec], out)
        report = render_report(out.getvalue())
        lines = report.splitlines()
        assert lines[0].split()[:3] == ["instance", "n", "m"]
        assert lines[2].split()[0] == "p3"
        assert "5" in lines[2].split()

    def test_rejects_foreign_csv(self):
        with pytest.raises(ConfigError):
            render_report("a,b\n1,2\n")

    def test_na_rows_rendered(self, tmp_path):
        out = io.StringIO()
        run_benchmark([InstanceSpec(path=str(tmp_path / "x.metis"), seeds=[1])], out)
        report = render_report(out.getvalue())
        assert "N/A" in report
