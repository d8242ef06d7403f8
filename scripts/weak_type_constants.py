#!/usr/bin/env python3
"""Empirical weak-type constants for the maximal and V operators.

For each requested operator, runs a suite of random step functions per bit
depth and prints the per-depth maxima of the normalized superlevel sweeps
(or integral/pointwise ratios for M1/M2 and Sch-ratio).
"""
import argparse
import sys

import numpy as np

from wss.errors import UsageError
from wss.experiments import OPERATORS, run_weak_type_suite, write_reports_csv
from wss.generators import parse_number


def family(operator: str, bits: int) -> str:
    """The suite's spec: a random step function, on 2^min(B, 4) cells a side in 2D."""
    dim = OPERATORS[operator][1] or 2
    level = bits if dim == 1 else min(bits, 4)
    return f"random-step:level={level},dim={dim}@B={bits}"


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own faults (a value such as -1_0 taken for a flag) as one line
        raise UsageError(message)


def main():
    ap = Parser(description=__doc__)
    ap.add_argument("--operators", nargs="+", default=["M", "M1", "V", "Sch-ratio"], choices=OPERATORS)
    ap.add_argument("--bits", nargs="+", default=["5", "6", "7"])
    ap.add_argument("--count", default="25", help="functions per suite")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    # wss's one number reader, which refuses "1_0" and non-ASCII digits
    args.bits = [parse_number(b, int, "--bits") for b in args.bits]
    for flag in ("count", "seed"):
        setattr(args, flag, parse_number(getattr(args, flag), int, f"--{flag}"))

    lam = np.geomspace(1e-3, 1e2, 26).tolist()
    reports = []
    for operator in args.operators:
        maxima = []
        for bits in args.bits:
            sweep = OPERATORS[operator][2] == "empirical_constant"  # the one row that takes a lambda grid
            rep = run_weak_type_suite(operator, family(operator, bits), args.count, lam if sweep else None,
                                      seed=args.seed)
            reports.append(rep)
            maxima.append(rep.value("suite_max"))
        cells = " | ".join(f"B={b}: {m:.4f}" for b, m in zip(args.bits, maxima))
        drift = max(maxima) / min(maxima) if min(maxima) > 0 else float("inf")
        print(f"{operator:>9}: {cells} | drift x{drift:.3f}")

    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    try:
        main()
    except UsageError as exc:  # a bad flag, a number parse_number refuses, or a value out of range
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
