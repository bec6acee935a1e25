import csv
import json

import pytest

from mwis.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, main

P3_METIS = "3 2 10\n1 2\n5 1 3\n1 2\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.metis"
    path.write_text(P3_METIS)
    return str(path)


class TestSolveCommand:
    def test_human_output(self, p3_file, capsys):
        code = main(["solve", p3_file, "--time-limit", "0.2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "weight        5" in out

    def test_json_output_uses_original_ids(self, p3_file, capsys):
        code = main(["solve", p3_file, "--time-limit", "0.2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == 5
        assert payload["vertices"] == [2]  # 1-based file id of the middle vertex
        assert payload["kernel_n"] == 0

    def test_csv_output(self, p3_file, capsys):
        code = main(["solve", p3_file, "--time-limit", "0.2", "--csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance,")
        assert lines[1].split(",")[6] == "5"

    def test_no_reduce_flag(self, p3_file, capsys):
        code = main(["solve", p3_file, "--time-limit", "0.2", "--no-reduce", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_n"] == 3
        assert payload["weight"] == 5

    def test_family_b_weights(self, p3_file, capsys):
        code = main(
            ["solve", p3_file, "--time-limit", "0.2", "--weights", "family-b:3", "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] > 0

    def test_edgelist_format(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        code = main(["solve", str(path), "--format", "edgelist", "--time-limit", "0.2", "--json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["weight"] == 2

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "missing.metis")])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.metis"
        path.write_text("2 1 0\n2\n\n")
        code = main(["solve", str(path)])
        assert code == EXIT_PARSE

    def test_bad_weight_mode_is_config_error(self, p3_file, capsys):
        code = main(["solve", p3_file, "--weights", "family-b"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["solve", "exact"])
    @pytest.mark.parametrize(
        "flags", [["--weights", "famly-a"], ["--weights", "file:3"], ["--format", "foo"]]
    )
    def test_bad_graph_source_is_config_error(self, p3_file, command, flags, capsys):
        assert main([command, p3_file, *flags]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_csv_row_quotes_the_instance_name(self, tmp_path, capsys):
        path = tmp_path / "a,b.metis"
        path.write_text(P3_METIS)
        assert main(["solve", str(path), "--time-limit", "0.2", "--csv"]) == EXIT_OK
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert len(header) == len(row) == 8
        assert row[0] == "a,b.metis"
        assert row[6] == "5"

    def test_bad_time_limit_is_config_error(self, p3_file):
        code = main(["solve", p3_file, "--time-limit", "-1"])
        assert code == EXIT_CONFIG

    def test_nan_time_limit_is_config_error(self, p3_file):
        assert main(["solve", p3_file, "--time-limit", "nan"]) == EXIT_CONFIG

    def test_reduce_cap_flag_rejected(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, "--time-limit", "0.1", "--reduce-cap", "1"])
        assert exc.value.code == 2


class TestExactCommand:
    def test_exact_solve(self, p3_file, capsys):
        code = main(["exact", p3_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "weight        5" in out
        assert "vertices      2" in out

    def test_too_large_is_config_error(self, tmp_path, capsys):
        n = 40
        lines = [f"{n} 0 0"] + [""] * n
        path = tmp_path / "big.metis"
        path.write_text("\n".join(lines) + "\n")
        code = main(["exact", str(path)])
        assert code == EXIT_CONFIG
        assert "32" in capsys.readouterr().err  # the limit, from brute_force_mwis


class TestBenchCommand:
    def test_bench_writes_csv_and_summary(self, p3_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "defaults": {"time_limit": 0.1, "seeds": [1, 2]},
                    "instances": [{"path": p3_file, "name": "p3"}],
                }
            )
        )
        csv_path = tmp_path / "rows.csv"
        summary_path = tmp_path / "summary.json"
        code = main(
            ["bench", str(spec), "--csv", str(csv_path), "--summary", str(summary_path)]
        )
        assert code == EXIT_OK
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 seeds
        summary = json.loads(summary_path.read_text())
        assert summary["instances"][0]["max_w"] == 5

    def test_bench_to_stdout(self, p3_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"path": p3_file, "time_limit": 0.1, "seeds": [1]}]))
        code = main(["bench", str(spec)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("instance,")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_config_error(self, p3_file, tmp_path, capsys, workers):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"path": p3_file, "time_limit": 0.1, "seeds": [1]}]))
        assert main(["bench", str(spec), "--workers", workers]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # no CSV header
        assert "workers must be at least 1" in captured.err
        rows = tmp_path / "rows.csv"
        rows.write_bytes(b"old,row\n")
        assert main(["bench", str(spec), "--csv", str(rows), "--workers", workers]) == EXIT_CONFIG
        assert "workers must be at least 1" in capsys.readouterr().err
        assert rows.read_bytes() == b"old,row\n"  # the earlier rows survive

    def test_bad_spec_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"path": "x.metis", "seeds": []}]))
        assert main(["bench", str(spec)]) == EXIT_CONFIG

    def test_misspelt_spec_key_is_config_error(self, p3_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"path": p3_file, "time_limt": 0.1}]))
        assert main(["bench", str(spec)]) == EXIT_CONFIG
        assert "unknown key 'time_limt'" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders(self, p3_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"path": p3_file, "time_limit": 0.1, "seeds": [1]}]))
        csv_path = tmp_path / "rows.csv"
        assert main(["bench", str(spec), "--csv", str(csv_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("instance")

    def test_missing_csv_is_parse_error(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == EXIT_PARSE


def test_log_level_env(monkeypatch, p3_file, capsys):
    monkeypatch.setenv("MWIS_LOG_LEVEL", "DEBUG")
    assert main(["exact", p3_file]) == EXIT_OK
