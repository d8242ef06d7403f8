#!/usr/bin/env python3
"""Empirical weak-type constants for the maximal and V operators.

For each requested operator, runs a suite of random step functions per bit
depth and prints the per-depth maxima of the normalized superlevel sweeps
(or integral/pointwise ratios for M1/M2 and Sch-ratio).
"""
from wss.cli import Parser  # first: it caps OpenBLAS at one thread before numpy loads

import numpy as np

from wss.experiments import OPERATORS, run_weak_type_suite, write_reports_csv


def family(operator: str, bits: int) -> str:
    """The suite's spec: a random step function, on 2^min(B, 4) cells a side in 2D."""
    dim = OPERATORS[operator][1] or 2
    level = bits if dim == 1 else min(bits, 4)
    return f"random-step:level={level},dim={dim}@B={bits}"


PARSER = Parser(description=__doc__)
PARSER.add_argument("--operators", nargs="+", default=["M", "M1", "V", "Sch-ratio"], choices=OPERATORS)
PARSER.add_argument("--bits", nargs="+", kind=int, default=["5", "6", "7"])
PARSER.add_argument("--count", kind=int, default="25", help="functions per suite")
PARSER.add_argument("--seed", kind=int, default="0")
PARSER.add_argument("--out", default=None)


def main(args):
    lam = np.geomspace(1e-3, 1e2, 26).tolist()
    # the one row that takes a lambda grid
    grid = {op: lam if row == "empirical_constant" else None for op, (_, _, row) in OPERATORS.items()}
    # every suite runs before the table prints, so a fault leaves stdout empty
    table = [[run_weak_type_suite(operator, family(operator, bits), args.count, grid[operator], seed=args.seed)
              for bits in args.bits] for operator in args.operators]
    for operator, row in zip(args.operators, table):
        maxima = [rep.value("suite_max") for rep in row]
        cells = " | ".join(f"B={b}: {m:.4f}" for b, m in zip(args.bits, maxima))
        drift = max(maxima) / min(maxima) if min(maxima) > 0 else float("inf")
        print(f"{operator:>9}: {cells} | drift x{drift:.3f}")
    reports = [rep for row in table for rep in row]

    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    raise SystemExit(PARSER.run(main))
