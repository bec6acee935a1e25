"""Seeded benchmark instances: the workload table, the G(n, m) generator and
the certified optima.

Every instance is a G(n, m) graph with family-b weights, serialized as a METIS
fmt-10 file. The solver only ever sees that file. Generation goes through the
program's own `build_graph`, `assign_weights_family_b` and `to_metis`, so the
SHA-256 of each stored seed's file is kept in `data/instances.json` and checked
on every run: a change to any of those functions, or to the sampling below,
fails loudly instead of silently changing what is measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA_FILE = Path(__file__).resolve().parent / "data" / "instances.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    time_limit: float  # SolverConfig.time_limit of every solve
    certified: bool = False  # compare against a HiGHS-proven optimum


# Why each workload exists (sizes measured on 2 cores, Python 3.11):
# - sparse-construct: average degree 6 at n = 12k. Reduction leaves an 11k
#   kernel and `reduction_construction` rescans it quadratically, taking
#   about 2-3 s of the 6 s limit; the rest is sparse-path search. The limit
#   is long enough that construction ends inside it even in the host's slow
#   phases, so `solve_wall_s` is bound by the deadline. A 1 s limit (an
#   overrun, as in the ROADMAP) made `solve_wall_s` pure CPU time, which
#   spread 0.2-0.3 of its median between runs here, more than any bound
#   allows; the construction's cost shows in `construct.initial_s` and, as
#   search time lost, in `best_weight`.
# - dense-search: p ~ 0.2, density radius 1, so `solve` takes the composite
#   loop (exchange modules A, EM, B plus perturbation). Reduction removes
#   nothing; parsing the 1.9 MB file dominates set-up.
# - sparse-certified: average degree 4 at n = 1000, small enough for HiGHS to
#   prove the optimum in well under a second and for the sparse path (global
#   descent, region search, composite recovery) to reach region search.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sparse-construct", n=12_000, m=36_000, time_limit=6.0),
        Workload("dense-search", n=1_500, m=225_000, time_limit=5.0),
        Workload("sparse-certified", n=1_000, m=2_000, time_limit=15.0, certified=True),
    )
}


@dataclass
class Instance:
    n: int
    edges: list[tuple[int, int]]  # 0-based, u < v, ascending
    weights: list[int]
    text: str  # METIS fmt-10 serialization handed to the solver

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Exactly m distinct edges sampled uniformly (the sampling of the test
    helper `random_gnm_graph`)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def generate(n: int, m: int, seed: int) -> Instance:
    """G(n, m) with family-b weights, both drawn from `seed`."""
    from mwis import assign_weights_family_b, build_graph, to_metis

    edges = gnm_edges(n, m, random.Random(seed))
    g = assign_weights_family_b(build_graph(n, edges, [1] * n), seed)
    return Instance(n=n, edges=edges, weights=list(g.weights), text=to_metis(g))


def load_data() -> dict:
    return json.loads(DATA_FILE.read_text())


def stored_entry(workload: str, seed: int) -> dict | None:
    """The stored record (parameters, hash, optimum) of a workload seed, if any."""
    return load_data().get(workload, {}).get(str(seed))


def check_hash(workload: str, seed: int, inst: Instance) -> None:
    """Raise when a stored seed no longer generates the stored file."""
    entry = stored_entry(workload, seed)
    if entry is None:
        return
    w = WORKLOADS[workload]
    if (entry["n"], entry["m"]) != (w.n, w.m):
        raise RuntimeError(f"{workload} seed {seed}: stored parameters differ from the workload")
    if inst.sha256 != entry["sha256"]:
        raise RuntimeError(
            f"{workload} seed {seed}: generated file hash {inst.sha256} differs from the "
            f"stored {entry['sha256']}; the generator or the code it calls has changed"
        )


class NotProven(RuntimeError):
    """HiGHS stopped without proving optimality."""


def prove_optimum(inst: Instance, time_limit: float = 60.0) -> int:
    """Optimum weight proven by scipy's HiGHS MILP on the reduced kernel.

    The kernel's optimum plus the kernel offset is the optimum of the input.
    Raises NotProven unless HiGHS reports optimality with a MIP gap of 0.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    from mwis import build_graph, reduce_graph

    kernel = reduce_graph(build_graph(inst.n, inst.edges, inst.weights))
    kg = kernel.graph
    if kg.n == 0:
        return kernel.offset
    rows, cols = [], []
    for u in range(kg.n):
        for v in kg.adjacency[u]:
            if u < v:
                k = len(rows) // 2
                rows += [k, k]
                cols += [u, v]
    c = -np.array(kg.weights, dtype=float)
    constraints = []
    if kg.m:
        a = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(kg.m, kg.n))
        constraints.append(LinearConstraint(a, -np.inf, 1))
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(kg.n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0, "time_limit": time_limit},
    )
    if res.status != 0 or res.x is None or getattr(res, "mip_gap", None) != 0:
        raise NotProven(f"HiGHS status {res.status}, mip_gap {getattr(res, 'mip_gap', None)}")
    chosen = [v for v in range(kg.n) if res.x[v] > 0.5]
    if not kg.is_independent(chosen):
        raise NotProven("HiGHS returned a set that is not independent")
    return kg.set_weight(chosen) + kernel.offset
