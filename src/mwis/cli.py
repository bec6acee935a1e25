"""Command-line interface.

Exit codes: 0 success, 2 parse error (unreadable or malformed graph file),
3 infeasible configuration. The MWIS_LOG_LEVEL environment variable sets the
logging level; everything else is flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .bench import (
    CSV_HEADER,
    ConfigError,
    load_bench_spec,
    parse_weight_mode,
    render_report,
    run_benchmark,
    summarize,
)
from .formats import ParseError, load_graph
from .oracle import BRUTE_FORCE_LIMIT, brute_force_mwis
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="graph file")
    p.add_argument("--format", choices=("metis", "edgelist"), default="metis")
    p.add_argument(
        "--weights",
        default="file",
        help="file | family-a | family-b:<seed> (default: weights from the file)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the local-search solver on one instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--time-limit", type=float, default=1000.0, metavar="S")
    p_solve.add_argument("--seed", type=int, default=1)
    p_solve.add_argument("--no-reduce", action="store_true", help="skip kernelization")
    p_solve.add_argument("--reduce-cap", type=float, default=200.0, metavar="S")
    fmt_group = p_solve.add_mutually_exclusive_group()
    fmt_group.add_argument("--json", action="store_true", help="emit the full result as JSON")
    fmt_group.add_argument("--csv", action="store_true", help="emit one CSV row")

    p_exact = sub.add_parser("exact", help=f"exact solve for tiny instances (n <= {BRUTE_FORCE_LIMIT})")
    _add_instance_args(p_exact)

    p_bench = sub.add_parser("bench", help="run a benchmark spec (JSON)")
    p_bench.add_argument("spec", help="benchmark spec file")
    p_bench.add_argument("--csv", metavar="PATH", help="write CSV rows here (default: stdout)")
    p_bench.add_argument("--summary", metavar="PATH", help="write a JSON summary here")
    p_bench.add_argument("--workers", type=int, default=1)

    p_report = sub.add_parser("report", help="render a benchmark CSV as a table")
    p_report.add_argument("csv_file", help="CSV produced by 'bench'")
    return parser


def _cmd_solve(args) -> int:
    g, ids = load_graph(args.file, args.format, *parse_weight_mode(args.weights))
    cfg = SolverConfig(
        time_limit=args.time_limit,
        seed=args.seed,
        no_reduce=args.no_reduce,
        reduce_cap=args.reduce_cap,
    )
    result = solve(g, cfg)
    original_ids = [ids[v] for v in result.best_set]
    name = Path(args.file).name
    if args.json:
        print(
            json.dumps(
                {
                    "instance": name,
                    "n": g.n,
                    "m": g.m,
                    "kernel_n": result.kernel_n,
                    "kernel_m": result.kernel_m,
                    "seed": cfg.seed,
                    "weight": result.best_weight,
                    "size": len(result.best_set),
                    "time_to_best": result.time_to_best,
                    "elapsed": result.elapsed,
                    "iterations": result.iterations,
                    "trace": result.trace,
                    "vertices": original_ids,
                }
            )
        )
    elif args.csv:
        print(",".join(CSV_HEADER))
        print(
            f"{name},{g.n},{g.m},{result.kernel_n},{result.kernel_m},"
            f"{cfg.seed},{result.best_weight},{result.time_to_best:.3f}"
        )
    else:
        print(f"instance      {name}")
        print(f"vertices      {g.n}")
        print(f"edges         {g.m}")
        print(f"kernel        {result.kernel_n} vertices, {result.kernel_m} edges")
        print(f"weight        {result.best_weight}")
        print(f"size          {len(result.best_set)}")
        print(f"time to best  {result.time_to_best:.3f}s")
        print(f"elapsed       {result.elapsed:.3f}s")
    return EXIT_OK


def _cmd_exact(args) -> int:
    g, ids = load_graph(args.file, args.format, *parse_weight_mode(args.weights))
    if g.n > BRUTE_FORCE_LIMIT:
        raise ConfigError(f"exact solve handles at most {BRUTE_FORCE_LIMIT} vertices, got {g.n}")
    best, weight = brute_force_mwis(g)
    print(f"weight        {weight}")
    print(f"size          {len(best)}")
    print("vertices      " + " ".join(str(ids[v]) for v in best))
    return EXIT_OK


def _cmd_bench(args) -> int:
    specs = load_bench_spec(Path(args.spec).read_text())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            rows = run_benchmark(specs, fh, workers=args.workers)
    else:
        rows = run_benchmark(specs, sys.stdout, workers=args.workers)
    if args.summary:
        Path(args.summary).write_text(json.dumps(summarize(rows), indent=2) + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    print(render_report(Path(args.csv_file).read_text()), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("MWIS_LOG_LEVEL", "WARNING").upper())
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "exact": _cmd_exact,
        "bench": _cmd_bench,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
