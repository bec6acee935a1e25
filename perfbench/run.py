"""Seeded end-to-end and per-layer benchmark of `mwis.solve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates the workload's instance
from --seed (see instances.py), then solves it again and again in fresh
single-threaded worker processes, one at a time (a closed loop with a single
caller), for about --seconds seconds. Every answer is checked against the
generated graph. With --trace 0 the last stdout line reports the end-to-end
metrics of BENCHMARK.json (medians over the solves); with --trace 1 it
reports the per-layer metrics of one traced solve plus untraced solves for
the tracing overhead. Earlier lines are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # hard cap on one run, which must end within 180 s

sys.path.insert(0, str(HERE))

import instances  # noqa: E402
from worker import import_program  # noqa: E402


def machine_loop_s() -> float:
    """Time of a fixed pure-Python loop, to spot slow phases of the host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return time.perf_counter() - t0


def check_answer(out: dict, inst: instances.Instance, optimum: int | None) -> str | None:
    """Independent check of one worker answer; returns a reason or None."""
    best = out["best_set"]
    if any(not isinstance(v, int) or not 0 <= v < inst.n for v in best):
        return "best_set holds a vertex outside the graph"
    if any(a >= b for a, b in zip(best, best[1:])):
        return "best_set is not strictly ascending"
    chosen = bytearray(inst.n)
    for v in best:
        chosen[v] = 1
    for u, v in inst.edges:
        if chosen[u] and chosen[v]:
            return f"best_set holds both ends of edge ({u}, {v})"
    weight = sum(inst.weights[v] for v in best)
    if weight != out["best_weight"]:
        return f"best_weight {out['best_weight']} but the file's weights give {weight}"
    if not out["trace"] or out["trace"][-1][1] != weight:
        return "improvement trace does not end at best_weight"
    if optimum is not None and weight > optimum:
        return f"best_weight {weight} exceeds the proven optimum {optimum}"
    return None


def search_iters_per_s(out: dict) -> float:
    search_s = out["elapsed"] - out["trace"][0][0]
    return out["iterations"] / search_s if search_s > 0 else 0.0


class Run:
    """The solves of one run on one instance, and their failures."""

    def __init__(self, workload, seed, inst, optimum, seconds: float, hard_stop: float):
        self.workload = workload
        self.inst = inst
        self.optimum = optimum
        self.seconds = seconds
        self.hard_stop = hard_stop  # perf_counter time by which every worker has ended
        self.attempted = 0
        self.failures: list[str] = []
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = WORK / f"{workload.name}-{seed}.metis"
        self.path.write_text(inst.text)
        self.started = time.perf_counter()

    def solve(self, solver_seed: int, setup_reps: int, spans: Path | None = None):
        """One worker solve; returns its output, or None after a failure."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.path),
               "--time-limit", str(self.workload.time_limit),
               "--solver-seed", str(solver_seed), "--setup-reps", str(setup_reps)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.hard_stop - time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=max(remaining, 1.0), cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            # subprocess.run kills the worker and waits for it before raising.
            self.failures.append(f"solver seed {solver_seed}: worker timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"solver seed {solver_seed}: worker exited {proc.returncode}: {tail[0]}")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        reason = check_answer(out, self.inst, self.optimum)
        if reason is not None:
            self.failures.append(f"solver seed {solver_seed}: {reason}")
            return None
        return out

    def repeat(self, first_seed: int, setup_reps: int, minimum: int) -> list[dict]:
        """Untraced solves until the run's seconds are used up (at least `minimum`)."""
        outs = []
        k = 0
        last = 0.0
        while k < minimum or time.perf_counter() - self.started + last <= self.seconds:
            t0 = time.perf_counter()
            out = self.solve(first_seed + k, setup_reps)
            last = time.perf_counter() - t0
            k += 1
            if out is not None:
                outs.append(out)
            if time.perf_counter() + last > self.hard_stop:
                break
        return outs


def end_to_end(outs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([s for o in outs for s in o["setup_s"]]),
        "solve_wall_s": median([o["solve_wall_s"] for o in outs]),
        "best_weight": median([o["best_weight"] for o in outs]),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
    }


def prepare(workload: instances.Workload, seed: int):
    """Generate the seed's instance, check it against stored data and find
    the optimum it is checked against (None when none can be proven)."""
    inst = instances.generate(workload.n, workload.m, seed)
    instances.check_hash(workload.name, seed, inst)
    optimum = None
    if workload.certified:
        entry = instances.stored_entry(workload.name, seed)
        if entry is not None:
            optimum = entry["optimum"]
        else:
            try:
                optimum = instances.prove_optimum(inst, time_limit=30.0)
            except ImportError:
                print("note: scipy unavailable, no certified optimum for this seed")
            except instances.NotProven as exc:
                print(f"note: optimum not proven for this seed ({exc})")
    return inst, optimum


def measure(workload: instances.Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload. Returns (metrics, attempted, failures, summary
    lines); the metrics are the end-to-end ones, or with `trace` the per-layer
    ones."""
    hard_stop = time.perf_counter() + RUN_LIMIT_S
    loops = [machine_loop_s()]
    inst, optimum = prepare(workload, seed)
    run = Run(workload, seed, inst, optimum, seconds, hard_stop)

    summary = [f"workload {workload.name} seed {seed} n {inst.n} m {len(inst.edges)} "
               f"time_limit {workload.time_limit} s file {len(inst.text)} bytes"]
    if optimum is not None:
        summary.append(f"certified optimum {optimum}")
    if trace:
        spans_path = WORK / f"{workload.name}-{seed}.spans.jsonl"
        traced = run.solve(seed, 1, spans_path)
        plain = run.repeat(seed + 1, 1, minimum=1)
        if traced is None or not plain:
            raise SystemExit("traced run failed:\n" + "\n".join(run.failures))
        metrics = dict(traced["layers"])
        untraced_rate = median([search_iters_per_s(o) for o in plain])
        metrics["search.iters_per_s"] = untraced_rate
        metrics["solver.first_solution_s"] = median([o["trace"][0][0] for o in plain])
        metrics["trace.overhead"] = search_iters_per_s(traced) - untraced_rate
        summary += traced_summary(traced)
    else:
        outs = run.repeat(seed, 3, minimum=2)
        if not outs:
            raise SystemExit("every solve failed:\n" + "\n".join(run.failures))
        metrics = end_to_end(outs)
        for o in outs:
            summary.append(
                f"solve: best_weight {o['best_weight']} first_solution_s {o['trace'][0][0]:.4f} "
                f"solve_wall_s {o['solve_wall_s']:.4f} setup_s {[round(s, 4) for s in o['setup_s']]} "
                f"search_iters_per_s {search_iters_per_s(o):.2f}"
            )
        if optimum is not None:
            summary.append(f"opt_gap {optimum - metrics['best_weight']} (optimum - median best_weight)")
    loops.append(machine_loop_s())
    if trace:
        metrics["machine.loop_s"] = median(loops)
    summary.append(f"machine.loop_s {loops}")
    return metrics, run.attempted, run.failures, summary


def report(metrics: dict, attempted: int, failures: list[str], summary: list[str], trace: bool) -> dict:
    """Print the summary and return the result object printed last."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    failed = len(failures)
    summary.append(f"attempted {attempted} failed {failed} failed_share {failed / attempted}")
    summary += [f"FAILED {f}" for f in failures]
    for line in summary:
        print(line)
    for m in declared:
        print(f"  {m['name']:34s} {metrics[m['name']]!r} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def traced_summary(traced: dict) -> list[str]:
    totals = traced["span_totals"]
    root = totals.get("solver", [0, 0.0, 0.0])[1]
    lines = [f"traced solve_wall_s {traced['solve_wall_s']!r} first_solution_s {traced['trace'][0][0]!r}",
             f"  {'span':26s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}"]
    for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:26s} {calls:8d} {total:12.4f} {own:10.4f}")
    solver_tree = sum(own for name, (_, _, own) in totals.items() if name != "formats.parse")
    lines.append(f"self times under solver sum to {solver_tree:.4f} s of {root:.4f} s")
    if traced["missing"]:
        lines.append(f"missing wrap targets: {', '.join(traced['missing'])}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    p.add_argument("--seed", type=int, default=instances.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()
    trace = bool(args.trace)
    measured = measure(instances.WORKLOADS[args.workload], args.seed, args.seconds, trace)
    print(json.dumps(report(*measured, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
