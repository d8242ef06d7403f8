#!/usr/bin/env python3
"""Sweep the BMO superlevel experiment over the spike family.

For each entropy target the empirical constant max_lambda lambda * mu / (1 + E2)
should be stable across bit depths; print the table and optionally dump the
full reports as CSV.
"""
from wss.cli import Parser  # first: it caps OpenBLAS at one thread before numpy loads

import numpy as np

from wss.errors import UsageError
from wss.experiments import run_theorem1, write_reports_csv

PARSER = Parser(description=__doc__)
PARSER.add_argument("--bits", nargs="+", kind=int, default=["5", "6", "7"])
PARSER.add_argument("--targets", nargs="+", kind=float, default=["1", "10", "100"])
PARSER.add_argument("--level", kind=int, default="2", help="spike block level")
PARSER.add_argument("--lambdas", kind=int, default="49", help="points in the geometric lambda grid")
PARSER.add_argument("--seed", kind=int, default="0")
PARSER.add_argument("--out", default=None, help="write all reports to this CSV file")


def main(args):
    if args.lambdas < 1:
        raise UsageError(f"--lambdas must be >= 1, got {args.lambdas}")
    lam = np.geomspace(1e-2, 1e4, args.lambdas).tolist()
    # every section runs before the table prints, so a fault leaves stdout empty
    table = [[run_theorem1(f"spike:level={args.level},target={target:g}@B={bits}", lam, seed=args.seed)
              for bits in args.bits] for target in args.targets]
    print(f"{'target':>8} | " + " | ".join(f"B={b:<2}" for b in args.bits) + " | spread")
    for target, row in zip(args.targets, table):
        constants = [rep.value("empirical_constant") for rep in row]
        spread = max(constants) / min(constants)
        print(f"{target:8g} | " + " | ".join(f"{c:.4f}" for c in constants) + f" | x{spread:.3f}")
    reports = [rep for row in table for rep in row]

    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    raise SystemExit(PARSER.run(main))
