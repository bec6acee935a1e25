"""Benchmark harness: run instance x seed jobs, emit CSV rows and a JSON summary."""

from __future__ import annotations

import csv
import io
import json
import logging
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .formats import ParseError, load_graph
from .graph import Graph
from .solver import SolverConfig, solve

log = logging.getLogger(__name__)

CSV_HEADER = ["instance", "n", "m", "kernel_n", "kernel_m", "seed", "weight", "time_to_best"]

FORMATS = ("metis", "edgelist")
WEIGHT_MODES = ("file", "family-a", "family-b")


class ConfigError(ValueError):
    """Infeasible benchmark or solver configuration."""


def parse_weight_mode(text: str) -> tuple[str, int | None]:
    """Split a weight-mode string like "family-b:7" into (mode, seed)."""
    mode, sep, seed_text = text.partition(":")
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weight mode {text!r} (expected one of {WEIGHT_MODES})")
    if mode == "family-b":
        if not sep:
            raise ConfigError("family-b weights need a seed, e.g. 'family-b:1'")
        try:
            return mode, int(seed_text)
        except ValueError as exc:
            raise ConfigError(f"bad family-b seed {seed_text!r}") from exc
    if sep:
        raise ConfigError(f"weight mode {mode!r} takes no seed")
    return mode, None


@dataclass
class InstanceSpec:
    path: str
    fmt: str = "metis"
    weight_mode: str = "file"
    weight_seed: int | None = None
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    time_limit: float = 1000.0
    no_reduce: bool = False
    reduce_cap: float = 200.0
    name: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError(f"instance {self.path}: seeds must be nonempty")
        if self.fmt not in FORMATS:
            raise ConfigError(f"instance {self.path}: unknown format {self.fmt!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"instance {self.path}: unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "family-b" and self.weight_seed is None:
            raise ConfigError(f"instance {self.path}: family-b weights need a seed")
        if self.time_limit <= 0:
            raise ConfigError(f"instance {self.path}: time_limit must be positive")
        if not self.name:
            self.name = Path(self.path).stem

    @classmethod
    def from_dict(cls, entry: dict, defaults: dict | None = None) -> "InstanceSpec":
        merged = dict(defaults or {})
        merged.update(entry)
        if "path" not in merged:
            raise ConfigError("instance entry missing 'path'")
        mode, seed = parse_weight_mode(merged.get("weights", "file"))
        return cls(
            path=merged["path"],
            fmt=merged.get("format", "metis"),
            weight_mode=mode,
            weight_seed=seed,
            seeds=list(merged.get("seeds", [1, 2, 3, 4, 5])),
            time_limit=float(merged.get("time_limit", 1000.0)),
            no_reduce=bool(merged.get("no_reduce", False)),
            reduce_cap=float(merged.get("reduce_cap", 200.0)),
            name=merged.get("name", ""),
        )


def load_bench_spec(text: str) -> list[InstanceSpec]:
    """Parse a benchmark spec: either a JSON list of instance entries or an
    object with "defaults" and "instances"."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"benchmark spec is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        defaults = data.get("defaults", {})
        entries = data.get("instances")
        if not isinstance(entries, list):
            raise ConfigError("benchmark spec object needs an 'instances' list")
    elif isinstance(data, list):
        defaults = {}
        entries = data
    else:
        raise ConfigError("benchmark spec must be a JSON list or object")
    return [InstanceSpec.from_dict(e, defaults) for e in entries]


@dataclass
class SeedRun:
    seed: int
    weight: int
    time_to_best: float


@dataclass
class BenchRow:
    instance: str
    n: int = 0
    m: int = 0
    kernel_n: int = 0
    kernel_m: int = 0
    max_w: int = 0
    avg_w: float = 0.0
    runs: list[SeedRun] = field(default_factory=list)
    error: str | None = None


def _run_seed(spec: InstanceSpec, g: Graph, seed: int) -> tuple[SeedRun, int, int]:
    cfg = SolverConfig(
        time_limit=spec.time_limit,
        seed=seed,
        no_reduce=spec.no_reduce,
        reduce_cap=spec.reduce_cap,
    )
    result = solve(g, cfg)  # raises unless the solution verifies against g
    return SeedRun(seed, result.best_weight, result.time_to_best), result.kernel_n, result.kernel_m


def _pool_job(args: tuple) -> tuple[int, int, SeedRun, int, int]:
    spec_index, seed_index, spec = args
    g, _ = load_graph(spec.path, spec.fmt, spec.weight_mode, spec.weight_seed)
    run, kn, km = _run_seed(spec, g, spec.seeds[seed_index])
    return spec_index, seed_index, run, kn, km


def run_benchmark(specs: list[InstanceSpec], out, workers: int = 1) -> list[BenchRow]:
    """Solve every (instance, seed) job, stream CSV rows to `out`, and return
    one aggregated row per instance. Unreadable instances produce an N/A row
    and the run continues."""
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    rows: list[BenchRow] = []
    runnable: list[tuple[int, InstanceSpec, Graph]] = []
    for i, spec in enumerate(specs):
        row = BenchRow(instance=spec.name)
        rows.append(row)
        try:
            g, _ = load_graph(spec.path, spec.fmt, spec.weight_mode, spec.weight_seed)
        except (OSError, ParseError, ValueError) as exc:
            log.warning("instance %s unreadable: %s", spec.name, exc)
            row.error = str(exc)
            continue
        row.n, row.m = g.n, g.m
        runnable.append((i, spec, g))

    if workers > 1:
        jobs = [
            (i, s, specs[i])
            for i, spec, _ in runnable
            for s, _ in enumerate(spec.seeds)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, s, run, kn, km in pool.map(_pool_job, jobs):
                rows[i].runs.append(run)
                rows[i].kernel_n, rows[i].kernel_m = kn, km
            for row in rows:
                row.runs.sort(key=lambda r: r.seed)
    else:
        for i, spec, g in runnable:
            for seed in spec.seeds:
                run, kn, km = _run_seed(spec, g, seed)
                rows[i].runs.append(run)
                rows[i].kernel_n, rows[i].kernel_m = kn, km

    for row in rows:
        if row.error is not None:
            writer.writerow([row.instance] + ["N/A"] * (len(CSV_HEADER) - 1))
            continue
        for run in row.runs:
            writer.writerow(
                [row.instance, row.n, row.m, row.kernel_n, row.kernel_m,
                 run.seed, run.weight, f"{run.time_to_best:.3f}"]
            )
        row.max_w = max(r.weight for r in row.runs)
        row.avg_w = statistics.fmean(r.weight for r in row.runs)
    return rows


def summarize(rows: list[BenchRow]) -> dict:
    """JSON-serializable aggregate of benchmark rows."""
    instances = []
    for row in rows:
        if row.error is not None:
            instances.append({"instance": row.instance, "error": row.error})
            continue
        instances.append(
            {
                "instance": row.instance,
                "n": row.n,
                "m": row.m,
                "kernel_n": row.kernel_n,
                "kernel_m": row.kernel_m,
                "max_w": row.max_w,
                "avg_w": row.avg_w,
                "runs": [
                    {"seed": r.seed, "weight": r.weight, "time_to_best": r.time_to_best}
                    for r in row.runs
                ],
            }
        )
    return {"instances": instances, "count": len(rows)}


def render_report(csv_text: str) -> str:
    """Human-readable table aggregating a benchmark CSV (max_w / avg_w / best time)."""
    reader = csv.DictReader(io.StringIO(csv_text))
    if reader.fieldnames != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {reader.fieldnames}")
    per_instance: dict[str, list[dict]] = {}
    for rec in reader:
        per_instance.setdefault(rec["instance"], []).append(rec)

    header = ["instance", "n", "m", "kernel", "seeds", "max_w", "avg_w", "t_best"]
    table = [header]
    for name, recs in per_instance.items():
        if recs[0]["n"] == "N/A":
            table.append([name, "N/A", "N/A", "N/A", "0", "N/A", "N/A", "N/A"])
            continue
        weights = [int(r["weight"]) for r in recs]
        times = [float(r["time_to_best"]) for r in recs]
        table.append(
            [
                name,
                recs[0]["n"],
                recs[0]["m"],
                f'{recs[0]["kernel_n"]}/{recs[0]["kernel_m"]}',
                str(len(recs)),
                str(max(weights)),
                f"{statistics.fmean(weights):.1f}",
                f"{min(times):.3f}",
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
