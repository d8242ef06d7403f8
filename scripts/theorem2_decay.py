#!/usr/bin/env python3
"""Exponential-mean decay of the quadratic partial sums at probe points.

Runs the quadrant indicator and a spectrum-resolved random input, prints the
per-probe trajectories and the fitted decay exponent of the resolved case
(expected -1: finitely many deviating summands give a C/m tail).
"""
from wss.cli import Parser  # first: it caps OpenBLAS at one thread before numpy loads

import numpy as np

from wss.experiments import run_theorem2, write_reports_csv

PARSER = Parser(description=__doc__)
PARSER.add_argument("--bits", kind=int, default="7")
PARSER.add_argument("--a", kind=float, default="1", help="exponential rate")
PARSER.add_argument("--support", kind=int, default="8", help="spectral support of the resolved input")
PARSER.add_argument("--seed", kind=int, default="0")
PARSER.add_argument("--out", default=None)


def main(args):
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
    raise SystemExit(PARSER.run(main))
