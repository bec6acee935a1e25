import csv
import io
import json

import pytest

from mwis.bench import (
    BenchRow,
    ConfigError,
    InstanceSpec,
    load_bench_spec,
    parse_weight_mode,
    render_report,
    run_benchmark,
    summarize,
)

P3_METIS = "3 2 10\n1 2\n5 1 3\n1 2\n"


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
        assert specs[0].time_limit == 0.5
        assert specs[0].seeds == [1, 2]
        assert specs[1].seeds == [9]
        assert specs[0].name == "a"

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
            InstanceSpec(path="x", time_limit=0)

    def test_nan_time_limit(self):
        with pytest.raises(ConfigError):
            InstanceSpec(path="x", time_limit=float("nan"))

    @pytest.mark.parametrize("cap", [-1.0, float("nan")])
    def test_bad_reduce_cap(self, cap):
        with pytest.raises(ConfigError):
            InstanceSpec(path="x", reduce_cap=cap)


class TestRunBenchmark:
    def test_rows_per_seed_plus_summary(self, p3_file):
        specs = [InstanceSpec(path=p3_file, seeds=[1, 2, 3, 4, 5], time_limit=0.1)]
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
            run_benchmark([InstanceSpec(path=p3_file, seeds=[1, 2], time_limit=0.1)], out)
            return out.getvalue()

        assert run() == run()

    def test_unreadable_instance_marks_na_and_continues(self, p3_file, tmp_path):
        missing = str(tmp_path / "nope.metis")
        specs = [
            InstanceSpec(path=missing, seeds=[1], time_limit=0.1),
            InstanceSpec(path=p3_file, seeds=[1], time_limit=0.1),
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
        spec = InstanceSpec(path=str(path), weight_mode="family-a", seeds=[1], time_limit=0.1)
        out = io.StringIO()
        rows = run_benchmark([spec], out)
        # family-a weights are 1,2,3: optimum is both endpoints (1 + 3)
        assert rows[0].max_w == 4

    def test_worker_pool_matches_sequential(self, p3_file):
        specs = [InstanceSpec(path=p3_file, seeds=[1, 2], time_limit=0.1)]
        seq = io.StringIO()
        par = io.StringIO()
        rows_seq = run_benchmark(specs, seq)
        rows_par = run_benchmark(specs, par, workers=2)
        # time_to_best is wall-clock time, so it may differ between the runs
        # in its last digit; every other column must match exactly.
        recs_seq = list(csv.DictReader(io.StringIO(seq.getvalue())))
        recs_par = list(csv.DictReader(io.StringIO(par.getvalue())))
        for rec in recs_seq + recs_par:
            assert 0.0 <= float(rec.pop("time_to_best")) <= specs[0].time_limit
        assert recs_seq == recs_par
        assert len(recs_seq) == 2
        assert rows_seq[0].max_w == rows_par[0].max_w


class TestReport:
    def test_renders_aggregated_table(self, p3_file):
        out = io.StringIO()
        run_benchmark([InstanceSpec(path=p3_file, seeds=[1, 2], time_limit=0.1)], out)
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
