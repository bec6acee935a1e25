"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from worker import import_program  # noqa: E402

import_program()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Same graph kind as each workload, small enough to solve in a fraction of a second.
TINY = {
    "sparse-construct": instances.Workload("sparse-construct-tiny", n=300, m=900, time_limit=0.2),
    "dense-search": instances.Workload("dense-search-tiny", n=60, m=354, time_limit=0.2),
    "sparse-certified": instances.Workload(
        "sparse-certified-tiny", n=80, m=160, time_limit=0.2, certified=True
    ),
}


def stored_seeds():
    return [
        (name, int(seed)) for name, entries in instances.load_data().items() for seed in entries
    ]


@pytest.mark.parametrize("workload,seed", stored_seeds())
def test_generator_reproduces_stored_file(workload, seed):
    w = instances.WORKLOADS[workload]
    inst = instances.generate(w.n, w.m, seed)
    assert inst.sha256 == instances.stored_entry(workload, seed)["sha256"]
    instances.check_hash(workload, seed, inst)


def test_changed_file_fails_loudly():
    w = instances.WORKLOADS["sparse-certified"]
    inst = instances.generate(w.n, w.m, instances.DEFAULT_SEED)
    inst.text += "% edited\n"
    with pytest.raises(RuntimeError, match="hash"):
        instances.check_hash(w.name, instances.DEFAULT_SEED, inst)


def test_every_workload_has_a_stored_default_seed():
    for name in instances.WORKLOADS:
        assert instances.stored_entry(name, instances.DEFAULT_SEED) is not None
    held_out = instances.stored_entry("sparse-certified", instances.HELD_OUT_SEED)
    assert held_out is not None and "optimum" in held_out


def test_stored_optima_are_proven_again():
    pytest.importorskip("scipy")
    for name, seed in stored_seeds():
        entry = instances.stored_entry(name, seed)
        if "optimum" not in entry:
            continue
        inst = instances.generate(entry["n"], entry["m"], entry["seed"])
        assert instances.prove_optimum(inst) == entry["optimum"]


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("c", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    totals = spans.totals_by_name(tree + [spans.Span("b", 9.5, 9.75, 0)])
    assert totals["b"].calls == 2
    assert totals["b"].total_s == 4.25
    assert totals["root"].self_s == 2.75
    # Self times of the whole tree add up to the root's duration.
    assert sum(spans.self_times(tree)) == 10.0


def test_tracer_records_parents_results_and_missing_targets():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("exchange.em", lambda: True)
    outer = tracer.wrap("outer", lambda: inner() and inner())
    assert outer() is True
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1),
        ("exchange.em", 0),
        ("exchange.em", 0),
    ]
    assert spans.totals_by_name(tracer.spans)["exchange.em"].true_calls == 2
    tracer.install((("mwis.solver", "no_such_function", "gone"),))
    assert tracer.missing == ["mwis.solver.no_such_function"]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_checks_and_prints_benchmark_metrics(workload, trace):
    metrics, attempted, failures, _ = run.measure(TINY[workload], 1, 0.5, trace)
    assert failures == []
    assert attempted >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert set(metrics) == {m["name"] for m in BENCHMARK[kind]}
    if not trace:
        assert all(v > 0 for v in metrics.values())


def test_answer_check_rejects_wrong_answers():
    inst = instances.generate(40, 60, 3)
    u, v = inst.edges[0]
    good = {"best_set": [0], "best_weight": inst.weights[0], "trace": [[0.1, inst.weights[0]]]}
    assert run.check_answer(good, inst, None) is None
    both = dict(good, best_set=[u, v], best_weight=inst.weights[u] + inst.weights[v])
    both["trace"] = [[0.1, both["best_weight"]]]
    assert "edge" in run.check_answer(both, inst, None)
    assert "weights give" in run.check_answer(dict(good, best_weight=good["best_weight"] + 1), inst, None)
    assert "optimum" in run.check_answer(good, inst, inst.weights[0] - 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
