"""One benchmark solve in a fresh single-threaded process.

    python3 perfbench/worker.py FILE --time-limit S --solver-seed K
        [--setup-reps R] [--spans OUT.jsonl]

Reads and parses the METIS file R times (set-up), solves it once and prints
one JSON object with the answer and its timings. With --spans the solve is
traced: the solver's public functions are wrapped at their import sites, the
spans are written to OUT.jsonl and the per-layer numbers join the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Small files are parsed repeatedly until this much time is spent, so that
# the median set-up time of a run rests on enough samples.
SETUP_BUDGET_S = 0.3


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    VmHWM restarts at exec; ru_maxrss would also count the parent's memory
    at fork time.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_program():
    """Import `mwis` from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "mwis" / "__init__.py").is_file():
        raise SystemExit(f"no mwis sources under {src}")
    sys.path.insert(0, str(src))
    import mwis

    if Path(mwis.__file__).resolve().parent != (src / "mwis").resolve():
        raise SystemExit(f"imported mwis from {mwis.__file__}, not from {src}")
    return mwis


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("file")
    p.add_argument("--time-limit", type=float, required=True)
    p.add_argument("--solver-seed", type=int, required=True)
    p.add_argument("--setup-reps", type=int, default=1, help="parse at least this often")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    import_program()
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    # Looked up after install() so that traced runs call the wrappers.
    import mwis.formats
    import mwis.solver

    path = Path(args.file)
    setup = []
    budget = 0.0 if tracer is not None else SETUP_BUDGET_S  # one traced parse
    while len(setup) < args.setup_reps or (sum(setup) < budget and len(setup) < 50):
        g = None  # drop the previous graph so that it does not raise the peak
        t0 = time.perf_counter()
        g, _ids = mwis.formats.parse_metis(path.read_text())
        setup.append(time.perf_counter() - t0)

    cfg = mwis.solver.SolverConfig(time_limit=args.time_limit, seed=args.solver_seed)
    t0 = time.perf_counter()
    result = mwis.solver.solve(g, cfg)
    wall = time.perf_counter() - t0

    out = {
        "setup_s": setup,
        "file_bytes": path.stat().st_size,
        "solve_wall_s": wall,
        "elapsed": result.elapsed,
        "iterations": result.iterations,
        "trace": result.trace,
        "best_weight": result.best_weight,
        "best_set": list(result.best_set),
        "peak_rss_mb": peak_rss_kb() / 1024,
    }
    if tracer is not None:
        from spans import layer_metrics, totals_by_name, vertexset_contains_ns

        layers = layer_metrics(tracer)
        layers["formats.parse_mb_per_s"] = out["file_bytes"] / 1e6 / statistics.median(setup)
        layers["graph.vertexset_contains_ns"] = vertexset_contains_ns()
        layers["solver.improvements"] = len(result.trace)
        out["layers"] = layers
        out["missing"] = tracer.missing
        out["span_totals"] = {
            name: [t.calls, t.total_s, t.self_s] for name, t in totals_by_name(tracer.spans).items()
        }
        tracer.write(args.spans)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
