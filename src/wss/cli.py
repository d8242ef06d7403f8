"""Command-line entry point.

  wss run <config> [--out DIR] [--threads N] [--seed S]   run configured experiments
  wss selftest                                            run the oracle battery
  wss gen <spec> --dump [--out FILE] [--seed S]           write one grid as CSV

Experiment scheduling may use a thread pool, but report assembly is fixed in
config order and every kernel has a fixed reduction tree, so output bytes do
not depend on --threads.
"""
from __future__ import annotations

import argparse
import csv
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import DataError, UsageError
from .experiments import (
    CSV_FIELDS,
    load_config,
    run_configured,
    write_reports_csv,
)
from .generators import FunctionSpec, generate_function
from .selftest import run_selftest
from .transform import DyadicGrid1D


def _cmd_run(args) -> int:
    configs = load_config(args.config)
    if not configs:
        raise UsageError(f"no experiment sections in {args.config!r}")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    out_dir = Path(args.out)
    try:  # before any section runs, so a bad --out costs nothing
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out!r}: {exc.strerror}") from exc
    if args.threads == 1:
        reports = [run_configured(cfg, args.seed) for cfg in configs]
    else:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            futures = [pool.submit(run_configured, cfg, args.seed) for cfg in configs]
            reports = [fut.result() for fut in futures]
    target = out_dir / "report.csv"
    try:
        write_reports_csv(reports, target)
    except OSError as exc:
        raise UsageError(f"cannot write {str(target)!r}: {exc.strerror}") from exc
    for report in reports:
        print(f"{report.experiment}: {len(report.rows)} rows (spec {report.spec}, B={report.bits})")
    print(f"wrote {target}")
    return 0


def _cmd_gen(args) -> int:
    spec = FunctionSpec.parse(args.spec)
    grid = generate_function(spec, args.seed)
    rows = []
    if isinstance(grid, DyadicGrid1D):
        for i, v in enumerate(grid.samples):
            rows.append(["gen", spec.text, str(spec.bits), str(args.seed), "grid1d", str(i), format(v, ".17g")])
    else:
        for i in range(grid.size):
            for j in range(grid.size):
                rows.append(
                    ["gen", spec.text, str(spec.bits), str(args.seed), f"grid2d:row={i}", str(j),
                     format(grid.samples[i, j], ".17g")]
                )
    try:
        handle = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(rows)
    finally:
        if args.out:
            handle.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wss", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config", help="INI config: one section per experiment")
    p_run.add_argument("--out", default="wss-out", help="output directory (default wss-out)")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads")
    p_run.add_argument("--seed", type=int, default=0, help="default seed for sections without one")

    sub.add_parser("selftest", help="run the built-in oracle suites")

    p_gen = sub.add_parser("gen", help="generate a grid from a function spec")
    p_gen.add_argument("spec", help="function spec, e.g. walsh-tensor:3,6@B=4")
    p_gen.add_argument("--dump", action="store_true", help="write the grid as CSV")
    p_gen.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    if argv is None and hasattr(signal, "SIGPIPE"):
        # die quietly when piped into head etc.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            return run_selftest()
        if args.command == "gen":
            if not args.dump:
                print("nothing to do: pass --dump to write the grid", file=sys.stderr)
                return 2
            return _cmd_gen(args)
    except (UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
