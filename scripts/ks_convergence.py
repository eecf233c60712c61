#!/usr/bin/env python3
"""Sweep the finite-field family average against the exact USp moment.

Prints one row per (partition, q) with the absolute error and the fitted
C q^(-1/2) envelope, the data behind the equidistribution check; a partition
of size > 4n+1 gets one "out of range" row instead.

    python scripts/ks_convergence.py --q 3,5,7,11,13,17,19,23
"""

import argparse
import math
from typing import get_args

from symp.errors import BudgetExceeded, OutOfRange, ParseError
from symp.ffield import Mode, PrimeField, empirical_moment
from symp.moments import moment_usp
from symp.partitions import Partition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--q", default="3,5,7,11,13,17,19,23")
    parser.add_argument("--partitions", default="1^2,2^1,1^4,2^2")
    parser.add_argument("--mode", choices=get_args(Mode), default="all_prime_powers")
    args = parser.parse_args()
    if args.n < 0:
        parser.error(f"--n: must be non-negative, got {args.n}")
    try:
        fields = {q: PrimeField(q) for q in (int(tok) for tok in args.q.split(","))}
    except ValueError as exc:
        parser.error(f"--q: {exc}")
    try:
        partitions = [Partition.parse(text.replace("+", " ")) for text in args.partitions.split(",")]
    except ParseError as exc:
        parser.error(f"--partitions: {exc}")

    print(f"{'partition':>10} {'q':>4} {'empirical':>12} {'exact':>7} {'abs_err':>10} {'C/sqrt(q)':>10}")
    for a in partitions:
        try:
            ref = moment_usp(args.n, a)
        except OutOfRange:
            print(f"{a.format():>10} {'out of range':>30}")
            continue
        try:
            values = {q: empirical_moment(field, args.n, a, args.mode) for q, field in fields.items()}
        except BudgetExceeded as exc:
            parser.exit(4, f"error: budget: {exc}\n")  # the exit code and message of `symp ffcheck`
        errs = {q: abs(value - ref) for q, value in values.items()}
        fitted = max(err * math.sqrt(q) for q, err in errs.items())
        for q in fields:
            print(
                f"{a.format():>10} {q:>4} {values[q]:>12.6f} {ref:>7} {errs[q]:>10.6f} {fitted / math.sqrt(q):>10.6f}"
            )


if __name__ == "__main__":
    main()
