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
import gc
import io
import os
import signal
import sys
from pathlib import Path

if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():  # before numpy loads: no wss
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # path calls BLAS, whose idle worker spins through ~90 ms of CPU

from .errors import DataError, UsageError
from .experiments import load_config, run_configured, write_csv, write_reports_csv
from .generators import FunctionSpec, generate_function, parse_number


def _cmd_run(args) -> int:
    configs = load_config(args.config)
    if not configs:
        raise UsageError(f"no experiment sections in {args.config!r}")
    out_dir = Path(args.out)
    try:  # before any section runs, so a bad --out costs nothing
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out!r}: {exc.strerror}") from exc
    if args.threads == 1:
        reports = [run_configured(cfg, args.seed) for cfg in configs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # and logging: a one-thread run loads neither
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            # the first failure cancels the sections still queued
            reports = list(pool.map(run_configured, configs, [args.seed] * len(configs)))
    target = out_dir / "report.csv"
    try:
        write_reports_csv(reports, target)
    except OSError as exc:
        raise UsageError(f"cannot write {str(target)!r}: {exc.strerror}") from exc
    for report in reports:
        print(f"{report.experiment}: {len(report.rows)} rows (spec {report.spec}, B={report.bits})")
    print(f"wrote {target}")
    return 0


def _dump_lines(f, prefix: str):
    """The dump's rows after the header, one string per grid row."""
    cells = f.cells.reshape(-1, len(f.cells))  # 1D: one row of cells, param grid1d
    width = f.size // cells.shape[1]
    line = "".join(f"\0{j},%.17g\n" for j in range(f.size))  # `_fmt`'s format; \0: each row's lead
    for r, row in enumerate(cells):
        body = line % tuple(v for v in row.tolist() for _ in range(width))  # once for the rows it spans
        for param in ["grid1d"] if f.dims == 1 else (f"grid2d:row={r * width + i}" for i in range(width)):
            yield body.replace("\0", f"{prefix}{param},")


def _cmd_gen(args) -> int:
    spec = FunctionSpec.parse(args.spec)
    prefix = io.StringIO()  # only the spec may need quoting: no later field holds a comma or quote
    csv.writer(prefix, lineterminator="").writerow(["gen", spec.text, spec.bits, args.seed, ""])
    try:  # each grid row is written as it is made: no list of the grid's rows
        write_csv((), args.out, _dump_lines(generate_function(spec, args.seed), prefix.getvalue()))
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    return 0


class Parser(argparse.ArgumentParser):
    """The front end of `wss`.  `add_argument(..., integer=True)` makes an integer flag, its value
    read by `parse_number`; the argument after one is its value even when argparse alone would
    take it for an option (`--seed -x`); argparse's own faults raise `UsageError`, with no
    usage block."""

    def __init__(self, *args, **kwargs):
        self.integers = {}  # flag -> dest
        super().__init__(*args, **kwargs)

    def add_argument(self, *flags, integer=False, **kwargs):
        action = super().add_argument(*flags, **kwargs)
        if integer:
            self.integers[flags[0]] = action.dest
        return action

    def parse_known_args(self, args=None, namespace=None):
        joined = []  # a subcommand's parser joins and reads its own flags
        for arg in sys.argv[1:] if args is None else args:
            if arg[:1] == "-" and joined and len(joined[-1]) > 2 and any(
                    flag.startswith(joined[-1]) for flag in self.integers):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        namespace, extras = super().parse_known_args(joined, namespace)
        for flag, dest in self.integers.items():
            setattr(namespace, dest, parse_number(getattr(namespace, dest), int, flag))
        return namespace, extras

    def error(self, message):
        raise UsageError(message)

    def run(self, command, argv=None) -> int:
        """`command(args)` on `argv`; a UsageError or DataError is one `error:` line and code 2."""
        try:
            return command(self.parse_args(argv)) or 0
        except (UsageError, DataError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def build_parser() -> Parser:
    parser = Parser(prog="wss", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config", help="INI config: one section per experiment")
    p_run.add_argument("--out", default="wss-out", help="output directory (default wss-out)")
    p_run.add_argument("--threads", integer=True, default="1", help="worker threads")
    p_run.add_argument("--seed", integer=True, default="0", help="default seed for sections without one")

    sub.add_parser("selftest", help="run the built-in oracle suites")

    p_gen = sub.add_parser("gen", help="generate a grid from a function spec")
    p_gen.add_argument("spec", help="function spec, e.g. walsh-tensor:3,6@B=4")
    p_gen.add_argument("--dump", action="store_true", help="write the grid as CSV")
    p_gen.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_gen.add_argument("--seed", integer=True, default="0")
    return parser


def _command(args) -> int:
    if getattr(args, "seed", 0) < 0:  # run's and gen's, before anything is read or generated
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    if getattr(args, "threads", 1) < 1:
        raise UsageError("--threads must be >= 1")
    if args.command == "selftest":
        from .selftest import run_selftest  # its oracles stay out of `wss run`
        return run_selftest()
    if args.command == "gen" and not args.dump:
        print("nothing to do: pass --dump to write the grid", file=sys.stderr)
        return 2
    return _cmd_run(args) if args.command == "run" else _cmd_gen(args)


def main(argv=None) -> int:
    if argv is None:  # run as a program: the exit-time collections skip what the imports made
        gc.freeze()
        if hasattr(signal, "SIGPIPE"):  # die quietly when piped into head etc.
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return build_parser().run(_command, argv)


if __name__ == "__main__":
    sys.exit(main())
