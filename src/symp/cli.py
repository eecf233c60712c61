"""Batch command-line front end.

Subcommands: ``moment`` (exact closed forms), ``oracle`` (quadrature / Monte
Carlo cross-checks), ``ffcheck`` (finite-field family averages against the
exact moment), ``linstat`` (linear-statistic moments against the Gaussian
main term).  Output is CSV or JSON rows with a fixed column set; identical
configurations and seeds produce byte-identical output.

Exit codes: 0 ok, 2 invalid configuration, 3 out-of-range moment request,
4 enumeration/cost budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import get_args

from . import ffield, haar, linstat, moments
from .errors import BudgetExceeded, OutOfRange, ParseError, PreconditionViolated
from .partitions import Partition

COLUMNS = [
    "check",
    "group",
    "q",
    "n",
    "partition",
    "mode",
    "m",
    "nu",
    "formula",
    "valid",
    "value",
    "reference_value",
    "abs_error",
    "bound",
    "stderr",
    "samples",
    "seed",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUT_OF_RANGE = 3
EXIT_BUDGET = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in COLUMNS])
        text = buf.getvalue()
    else:
        objects = [{col: _fmt(row.get(col)) for col in COLUMNS} for row in rows]
        text = json.dumps(objects, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseError(f"--out: cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_partition(text: str, flag: str) -> Partition:
    try:
        return Partition.parse(text)
    except ParseError as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _check_flags(args) -> None:
    """Reject a negative matrix size --n, moment order --m or seed --seed, a
    sample count below 2 (one sample has no standard error), and a worker
    count or finite-field budget below 1."""
    for flag in ("n", "m", "seed"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ParseError(f"--{flag}: must be non-negative, got {value}")
    for flag, least in (("samples", 2), ("threads", 1), ("budget", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ParseError(f"--{flag}: must be at least {least}, got {value}")


def _cmd_moment(args) -> list[dict]:
    a = _parse_partition(args.partition, "--partition")
    base = {"group": args.group, "n": args.n, "partition": a.format()}
    if args.group == "usp":
        value = moments.moment_usp(args.n, a)
        return [dict(base, check="usp-moment", formula="exact", valid=True, value=value)]
    if args.group == "so":
        flagged = moments.moment_so_gaussian(args.n, a)
        return [
            dict(
                base,
                check="gaussian-model-so",
                formula="gaussian",
                valid=flagged.valid,
                value=flagged.value,
            )
        ]
    b = _parse_partition(args.partition_b if args.partition_b is not None else args.partition, "--partition-b")
    flagged = moments.moment_u_gaussian(args.n, a, b)
    row = dict(
        base,
        check="gaussian-model-u",
        partition=f"{a.format()}|{b.format()}",
        formula="gaussian",
        valid=flagged.valid,
        value=flagged.value,
    )
    return [row]


def _cmd_oracle(args) -> list[dict]:
    a = _parse_partition(args.partition, "--partition")
    in_range = a.size <= 4 * args.n + 1
    reference = moments.moment_usp(args.n, a) if in_range else None
    base = {
        "group": "usp",
        "n": args.n,
        "partition": a.format(),
        "valid": in_range,
        "reference_value": reference,
    }
    if args.method == "quadrature":
        value = haar.moment_quadrature(args.n, a)
        row = dict(base, check="quadrature-vs-exact", formula="quadrature", value=value)
    else:
        cfg = haar.MCConfig(args.n, args.samples, args.seed)
        value, stderr = haar.moment_mc(args.n, a, cfg, threads=args.threads)
        row = dict(
            base,
            check="mc-vs-exact",
            formula="mc",
            value=value,
            stderr=stderr,
            samples=args.samples,
            seed=args.seed,
        )
    if reference is not None:
        row["abs_error"] = abs(row["value"] - reference)
    return [row]


def _cmd_ffcheck(args) -> list[dict]:
    a = _parse_partition(args.partition, "--partition")
    try:
        q_list = [int(tok) for tok in args.q.split(",") if tok]
    except ValueError as exc:
        raise ParseError(f"--q: {exc}") from exc
    if not q_list:
        raise ParseError("--q: at least one prime required")
    reference = moments.moment_usp(args.n, a)
    try:
        fields = [ffield.PrimeField(q) for q in q_list]
    except ValueError as exc:
        raise ParseError(f"--q: {exc}") from exc
    rows = []
    for field in fields:
        value = ffield.empirical_moment(field, args.n, a, args.mode, budget=args.budget)
        rows.append(
            dict(
                check="family-average-vs-exact",
                group="usp",
                q=field.q,
                n=args.n,
                partition=a.format(),
                mode=args.mode,
                value=value,
                reference_value=reference,
                abs_error=abs(value - reference),
            )
        )
    fitted = max(row["abs_error"] * math.sqrt(row["q"]) for row in rows)
    for row in rows:
        row["bound"] = fitted / math.sqrt(row["q"])
    return rows


def _cmd_linstat(args) -> list[dict]:
    try:
        f = linstat.FourierTestFn.parse(args.f)
    except ParseError as exc:
        raise ParseError(f"--f: {exc}") from exc
    exact = linstat.statistic_moment_exact(args.n, args.nu, args.m, f)
    try:
        prediction = linstat.statistic_moment_gaussian(args.n, args.nu, args.m, f)
        exact_float = float(exact)
    except OverflowError as exc:
        raise ParseError(f"--f: the moment is too large for a float: {exc}") from exc
    base = {"group": "usp", "n": args.n, "m": args.m, "nu": args.nu, "partition": args.f}
    rows = [
        dict(
            base,
            check="linear-statistic-exact-vs-gaussian",
            formula="exact",
            value=exact,
            reference_value=prediction,
            abs_error=abs(exact_float - prediction),
        )
    ]
    if args.samples is not None:
        cfg = haar.MCConfig(args.n, args.samples, args.seed)
        [(est, stderr)] = linstat.statistic_moments_mc(args.n, args.nu, (args.m,), f, cfg, args.threads)
        rows.append(
            dict(
                base,
                check="linear-statistic-mc-vs-exact",
                formula="mc",
                value=est,
                reference_value=exact,
                abs_error=abs(est - exact_float),
                stderr=stderr,
                samples=args.samples,
                seed=args.seed,
            )
        )
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None)

    p_moment = sub.add_parser("moment", help="exact closed-form trace moments")
    p_moment.add_argument("--group", choices=["usp", "so", "u"], default="usp")
    p_moment.add_argument("--n", type=int, required=True)
    p_moment.add_argument("--partition", required=True)
    p_moment.add_argument("--partition-b", default=None, help="second exponent partition (u group)")
    common(p_moment)

    p_oracle = sub.add_parser("oracle", help="numerical Haar-integral oracles")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--partition", required=True)
    p_oracle.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    p_oracle.add_argument("--samples", type=int, default=100_000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--threads", type=int, default=1)
    common(p_oracle)

    p_ff = sub.add_parser("ffcheck", help="finite-field family average vs exact moment")
    p_ff.add_argument("--n", type=int, required=True)
    p_ff.add_argument("--partition", required=True)
    p_ff.add_argument("--q", required=True, help="comma-separated odd primes")
    p_ff.add_argument("--mode", choices=get_args(ffield.Mode), default="all_prime_powers")
    p_ff.add_argument("--budget", type=int, default=ffield.DEFAULT_BUDGET)
    common(p_ff)

    p_ls = sub.add_parser("linstat", help="linear-statistic moments")
    p_ls.add_argument("--n", type=int, required=True)
    p_ls.add_argument("--nu", type=int, required=True)
    p_ls.add_argument("--m", type=int, required=True)
    p_ls.add_argument("--f", required=True, help="Fourier table, e.g. '0:1 1:0.5'")
    p_ls.add_argument("--samples", type=int, default=None)
    p_ls.add_argument("--seed", type=int, default=0)
    p_ls.add_argument("--threads", type=int, default=1)
    common(p_ls)

    return parser


_HANDLERS = {
    "moment": _cmd_moment,
    "oracle": _cmd_oracle,
    "ffcheck": _cmd_ffcheck,
    "linstat": _cmd_linstat,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        _emit(_HANDLERS[args.command](args), args.format, args.out)
    except (ParseError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutOfRange as exc:
        print(f"error: out of range: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_RANGE
    except BudgetExceeded as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
