"""Benchmark harness: run instance x seed jobs, emit CSV rows and a JSON summary."""

from __future__ import annotations

import csv
import io
import json
import logging
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

from .formats import check_source, load_graph
from .solver import SolverConfig, solve

log = logging.getLogger(__name__)

CSV_HEADER = ["instance", "n", "m", "kernel_n", "kernel_m", "seed", "weight", "time_to_best"]

# Spec keys by JSON type. Types are matched exactly, because Python reads a
# JSON boolean as a bool, which is also an int.
SPEC_TYPES = [
    ("string", (str,), ("path", "name", "format", "weights")),
    ("list", (list,), ("seeds",)),
    ("number", (int, float), ("time_limit",)),
    ("boolean", (bool,), ("no_reduce",)),
]
# Every SolverConfig field is a spec key except the seed, which "seeds" sets per run.
SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig) if f.name != "seed")
SPEC_KEYS = frozenset(key for _, _, keys in SPEC_TYPES for key in keys)


class ConfigError(ValueError):
    """Infeasible benchmark or solver configuration."""


def parse_weight_mode(text: str) -> tuple[str, int | None]:
    """Split a weight-mode string like "family-b:7" into (mode, seed)."""
    mode, sep, seed_text = text.partition(":")
    try:
        seed = int(seed_text) if sep else None
        check_source(weight_mode=mode, weight_seed=seed)
    except ValueError as exc:
        raise ConfigError(f"weights {text!r}: {exc}") from exc
    return mode, seed


@dataclass
class InstanceSpec:
    path: str
    fmt: str = "metis"
    weight_mode: str = "file"
    weight_seed: int | None = None
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    config: SolverConfig = field(default_factory=SolverConfig)  # its seed is set per run
    name: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError(f"instance {self.path}: seeds must be nonempty")
        try:
            check_source(self.fmt, self.weight_mode, self.weight_seed)
        except ValueError as exc:
            raise ConfigError(f"instance {self.path}: {exc}") from exc
        if not self.name:
            self.name = Path(self.path).stem

    @classmethod
    def from_dict(cls, entry: dict, defaults: dict | None = None) -> "InstanceSpec":
        merged = dict(defaults or {})
        merged.update(entry)
        if "path" not in merged:
            raise ConfigError("instance entry missing 'path'")
        where = f"instance {merged['path']}"
        for source, keys in (("", entry), (" in defaults", defaults or {})):
            unknown = sorted(set(keys) - SPEC_KEYS)
            if unknown:
                raise ConfigError(f"{where}: unknown key {unknown[0]!r}{source}")
        for kind, types, keys in SPEC_TYPES:
            for key in keys:
                if key in merged and type(merged[key]) not in types:
                    raise ConfigError(f"{where}: {key} must be a JSON {kind}")
        if any(type(seed) is not int for seed in merged.get("seeds", [])):
            raise ConfigError(f"{where}: seeds must be integers")
        # A key left unset takes the InstanceSpec default.
        given = {attr: merged[key] for key, attr in (("format", "fmt"), ("name", "name")) if key in merged}
        if "seeds" in merged:
            given["seeds"] = list(merged["seeds"])
        try:
            given["config"] = SolverConfig(**{key: merged[key] for key in SOLVER_KEYS if key in merged})
            if "weights" in merged:
                given["weight_mode"], given["weight_seed"] = parse_weight_mode(merged["weights"])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        return cls(merged["path"], **given)


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
    if not all(isinstance(e, dict) for e in [defaults, *entries]):
        raise ConfigError("benchmark spec defaults and instance entries must be JSON objects")
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


def csv_row(row: BenchRow, run: SeedRun) -> list:
    """The CSV data row of one run, in CSV_HEADER order."""
    return [
        row.instance, row.n, row.m, row.kernel_n, row.kernel_m,
        run.seed, run.weight, f"{run.time_to_best:.3f}",
    ]


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


def run_benchmark(specs: list[InstanceSpec], out, workers: int = 1) -> list[BenchRow]:
    """Solve every (instance, seed) job, write CSV rows to `out`, and return
    one aggregated row per instance. Rows follow spec order and, within an
    instance, the order of its seeds, for any number of workers; each is
    written and flushed as soon as its run returns. One instance's graph is
    held at a time. Unreadable instances produce an N/A row and the run
    continues. Raises ConfigError, before writing anything, for workers < 1."""
    check_workers(workers)
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    out.flush()
    rows: list[BenchRow] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run_all = pool.map if pool is not None else map
        for spec in specs:
            row = BenchRow(instance=spec.name)
            rows.append(row)
            try:
                g, _ = load_graph(spec.path, spec.fmt, spec.weight_mode, spec.weight_seed)
            except (OSError, ValueError) as exc:  # ParseError is a ValueError
                log.warning("instance %s unreadable: %s", spec.name, exc)
                row.error = str(exc)
                writer.writerow([row.instance] + ["N/A"] * (len(CSV_HEADER) - 1))
                out.flush()
                continue
            row.n, row.m = g.n, g.m
            configs = [replace(spec.config, seed=seed) for seed in spec.seeds]
            # solve raises unless its solution verifies against the graph.
            for cfg, result in zip(configs, run_all(solve, repeat(g), configs)):
                run = SeedRun(cfg.seed, result.best_weight, result.time_to_best)
                row.runs.append(run)
                row.kernel_n, row.kernel_m = result.kernel_n, result.kernel_m
                writer.writerow(csv_row(row, run))
                out.flush()
            del g  # drop the graph before the next instance is loaded
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
        record = asdict(row)
        del record["error"]
        instances.append(record)
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
