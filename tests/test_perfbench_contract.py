"""What the benchmark in perfbench/ needs from `mwis`.

perfbench traces the solver by wrapping functions it names in
`spans.TARGETS`, reads region-search statistics through two keyword
parameters, and imports a few names from the package root. These tests look
all of that up without installing any wrapper, so no other test sees a
traced function. The last test runs perfbench's worker untraced in its own
process, as each benchmark solve does.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("spans")


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_resolves(spans):
    missing = []
    for module_name, attr, _ in spans.TARGETS:
        try:
            fn = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        assert callable(fn), f"{module_name}.{attr}"
    assert missing == []


def test_region_search_takes_the_traced_keywords():
    from mwis.solver import region_search

    params = inspect.signature(region_search).parameters
    assert "stats_out" in params
    assert "on_improve" in params


def test_root_exports_used_by_perfbench(spans):
    from mwis import VertexSet, assign_weights_family_b, build_graph, reduce_graph, to_metis
    from mwis.solver import SolverConfig

    assert all(callable(f) for f in (assign_weights_family_b, build_graph, reduce_graph, to_metis))
    assert SolverConfig(time_limit=1.0, seed=1).seed == 1
    assert list(VertexSet(range(0, 6, 2))) == [0, 2, 4]
    assert spans.vertexset_contains_ns(reps=1, lookups=2000) > 0


def test_untraced_worker_solves_a_tiny_file(tmp_path):
    path = tmp_path / "p3.metis"
    path.write_text("3 2 10\n1 2\n5 1 3\n1 2\n")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), str(path),
         "--time-limit", "0.05", "--solver-seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for key in ("best_weight", "best_set", "iterations", "trace", "elapsed", "peak_rss_mb"):
        assert key in out, key
    assert out["best_weight"] == 5
    assert out["best_set"] == [1]
