#!/usr/bin/env python3
"""Sweep the BMO superlevel experiment over the spike family.

For each entropy target the empirical constant max_lambda lambda * mu / (1 + E2)
should be stable across bit depths; print the table and optionally dump the
full reports as CSV.
"""
import argparse

import numpy as np

from wss.experiments import run_theorem1, write_reports_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bits", type=int, nargs="+", default=[5, 6, 7])
    ap.add_argument("--targets", type=float, nargs="+", default=[1.0, 10.0, 100.0])
    ap.add_argument("--level", type=int, default=2, help="spike block level")
    ap.add_argument("--lambdas", type=int, default=49, help="points in the geometric lambda grid")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write all reports to this CSV file")
    args = ap.parse_args()

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
    main()
