#!/usr/bin/env python3
"""Sweep the BMO superlevel experiment over the spike family.

For each entropy target the empirical constant max_lambda lambda * mu / (1 + E2)
should be stable across bit depths; print the table and optionally dump the
full reports as CSV.
"""
import argparse
import sys

import numpy as np

from wss.errors import UsageError
from wss.experiments import run_theorem1, write_reports_csv
from wss.generators import parse_number


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own faults (a value such as -1_0 taken for a flag) as one line
        raise UsageError(message)


def main():
    ap = Parser(description=__doc__)
    ap.add_argument("--bits", nargs="+", default=["5", "6", "7"])
    ap.add_argument("--targets", nargs="+", default=["1", "10", "100"])
    ap.add_argument("--level", default="2", help="spike block level")
    ap.add_argument("--lambdas", default="49", help="points in the geometric lambda grid")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--out", default=None, help="write all reports to this CSV file")
    args = ap.parse_args()
    # wss's one number reader, which refuses "1_0" and non-ASCII digits
    args.bits = [parse_number(b, int, "--bits") for b in args.bits]
    args.targets = [parse_number(t, float, "--targets") for t in args.targets]
    for flag in ("level", "lambdas", "seed"):
        setattr(args, flag, parse_number(getattr(args, flag), int, f"--{flag}"))

    lam = np.geomspace(1e-2, 1e4, args.lambdas).tolist()
    reports = []
    print(f"{'target':>8} | " + " | ".join(f"B={b:<2}" for b in args.bits) + " | spread")
    for target in args.targets:
        constants = []
        for bits in args.bits:
            rep = run_theorem1(
                f"spike:level={args.level},target={target:g}@B={bits}", lam, seed=args.seed
            )
            reports.append(rep)
            constants.append(rep.value("empirical_constant"))
        spread = max(constants) / min(constants)
        print(f"{target:8g} | " + " | ".join(f"{c:.4f}" for c in constants) + f" | x{spread:.3f}")

    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    try:
        main()
    except UsageError as exc:  # a bad flag, a number parse_number refuses, or a value out of range
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
