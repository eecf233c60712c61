#!/usr/bin/env python3
"""Gaussianity of narrow-band linear statistics as n grows.

For each n in the sweep it prints the exact moment of W (the trace-indexed
linear statistic with frequency nu = n/2), the Gaussian main term
eta_m (m-1)!! ||f||^m nu^(m/2), and their ratio.

    python scripts/linstat_gaussianity.py --f "0:1 1:0.5" --m 2,3,4
"""

import argparse
import math

from symp.errors import OutOfRange, ParseError
from symp.linstat import FourierTestFn, statistic_moment_exact, statistic_moment_gaussian


def _orders(parser: argparse.ArgumentParser, flag: str, text: str) -> list[int]:
    """The comma-separated non-negative integers of `flag`, or exit 2 naming it."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")
    if min(values) < 0:
        parser.error(f"{flag}: must be non-negative, got {min(values)}")
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f", default="0:1 1:0.5")
    parser.add_argument("--m", default="2,3,4")
    parser.add_argument("--n", default="20,40,80,160")
    args = parser.parse_args()

    try:
        f = FourierTestFn.parse(args.f)
    except ParseError as exc:
        parser.error(f"--f: {exc}")
    ms = _orders(parser, "--m", args.m)
    ns = _orders(parser, "--n", args.n)
    print(f"{'n':>5} {'nu':>5} {'m':>3} {'exact':>16} {'gaussian':>14} {'ratio':>10}")
    for n in ns:
        nu = n // 2
        for m in ms:
            main_term = statistic_moment_gaussian(n, nu, m, f)
            try:
                exact = statistic_moment_exact(n, nu, m, f)
            except OutOfRange:
                # some multi-index needs a partition of size > 4n+1
                print(f"{n:>5} {nu:>5} {m:>3} {'out of range':>16} {main_term:>14.4f}")
                continue
            if main_term:
                ratio = f"{float(exact) / main_term:10.5f}"
            elif nu:
                # odd m: report the decaying scaled size instead of a ratio
                ratio = f"{abs(float(exact)) / nu ** (m / 2) * math.sqrt(n):8.3f}/sqrt(n)"
            else:
                ratio = f"{'-':>10}"  # nu = 0 (n <= 1): no scale nu^(m/2) to compare with
            print(f"{n:>5} {nu:>5} {m:>3} {float(exact):>16.4f} {main_term:>14.4f} {ratio}")


if __name__ == "__main__":
    main()
