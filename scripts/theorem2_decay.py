#!/usr/bin/env python3
"""Exponential-mean decay of the quadratic partial sums at probe points.

Runs the quadrant indicator and a spectrum-resolved random input, prints the
per-probe trajectories and the fitted decay exponent of the resolved case
(expected -1: finitely many deviating summands give a C/m tail).
"""
import argparse
import sys

import numpy as np

from wss.errors import UsageError
from wss.experiments import run_theorem2, write_reports_csv
from wss.generators import parse_number


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own faults (a value such as -1_0 taken for a flag) as one line
        raise UsageError(message)


def main():
    ap = Parser(description=__doc__)
    ap.add_argument("--bits", default="7")
    ap.add_argument("--a", default="1", help="exponential rate")
    ap.add_argument("--support", default="8", help="spectral support of the resolved input")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    # wss's one number reader, which refuses "1_0" and non-ASCII digits
    for flag, kind in (("bits", int), ("a", float), ("support", int), ("seed", int)):
        setattr(args, flag, parse_number(getattr(args, flag), kind, f"--{flag}"))

    ms = [1 << k for k in range(2, args.bits + 1)]
    quadrant = run_theorem2(
        f"indicator-rect:0,0.5,0,0.5@B={args.bits}", args.a, ms,
        probes=[(0.25, 0.25), (0.75, 0.75)], seed=args.seed,
    )
    resolved = run_theorem2(
        f"random-spectrum:support={args.support},dim=2@B={args.bits}", args.a, ms,
        seed=args.seed,
    )

    for rep in (quadrant, resolved):
        print(f"== {rep.spec}")
        for param in sorted({p for p, _, _ in rep.rows if p.startswith("phi_mean")}):
            keys, vals = rep.series(param)
            track = ", ".join(f"m={int(k)}: {v:.3e}" for k, v in zip(keys, vals))
            print(f"  {param}: {track}")
            tail = keys >= args.support
            if rep is resolved and tail.sum() >= 2 and vals[tail].min() > 0:
                slope = np.polyfit(np.log(keys[tail]), np.log(vals[tail]), 1)[0]
                print(f"    fitted decay exponent past the support: {slope:+.5f}")

    if args.out:
        write_reports_csv([quadrant, resolved], args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    try:
        main()
    except UsageError as exc:  # a bad flag, a number parse_number refuses, or a value out of range
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
