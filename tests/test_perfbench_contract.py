"""What the benchmark in perfbench/ needs from `mwis`.

perfbench traces the solver by wrapping functions it names in
`spans.TARGETS`, reads region-search statistics through two keyword
parameters, and imports a few names from the package root. These tests look
all of that up without installing any wrapper, so no other test sees a
traced function.
"""

import importlib
import inspect
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
