"""Op lists of the four benchmark workloads and the checks on their rows.

An op is one call into symp's public API that yields one checked row, the
unit of one CLI output row.  ``call`` is the timed part: the routes the
workload measures.  ``check`` is untimed: it computes references and returns
a list of problems (empty when the row is right).  ``golden`` maps a row to
the string stored in ``golden.json``, for workloads whose outputs are
deterministic; Monte Carlo rows have none, because their streams may change.

Every workload function takes the namespace ``sym`` of imported symp
modules, the seed and the ``quick`` flag, and returns the timed ops and the
untimed one-off checks.  Ops look functions up as module attributes at call
time, so the tracer's patches see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np


@dataclass
class Op:
    id: str
    call: Callable[[], dict]
    check: Callable[[dict], list[str]]
    golden: Callable[[dict], str] | None = None


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def partition_counts(k_max: int) -> list[int]:
    """p(0..k_max) by the coin-change recurrence, independent of symp."""
    p = [1] + [0] * k_max
    for part in range(1, k_max + 1):
        for total in range(part, k_max + 1):
            p[total] += p[total - part]
    return p


def _mobius(m: int) -> int:
    result, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def gauss_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q."""
    return sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _no_check(row) -> list[str]:
    return []


def _value(row) -> str:
    return str(row["value"])


# ---------------------------------------------------------------------------
# sweep: moment_usp as thousands of cheap calls


def sweep(sym, seed: int, quick: bool):
    """Every partition of size <= 4n+1, n = 1..6: a change that adds
    overhead per call shows here as a loss, whatever it saves elsewhere."""
    n_max = 2 if quick else 6
    p = partition_counts(4 * n_max + 1)
    ops, counts = [], {}
    for n in range(1, n_max + 1):
        shapes = list(sym.partitions.partitions_of_size_at_most(4 * n + 1))
        counts[n] = len(shapes)
        ops += [_sweep_op(sym.moments, sym.haar, n, a) for a in shapes]

    def partition_count_check(_row):
        return [
            f"n={n}: {got} partitions of size <= {4 * n + 1}, expected {sum(p[: 4 * n + 2])}"
            for n, got in counts.items()
            if got != sum(p[: 4 * n + 2])
        ]

    return ops, [Op("sweep.partition_counts", dict, partition_count_check)]


def _sweep_op(moments, haar, n, a):
    def call():
        row = {"exact": moments.moment_usp(n, a)}
        if a.size <= 2 * n + 1:
            row["gaussian"] = moments.moment_usp_gaussian(n, a).value
        if n <= 3:
            row["quadrature"] = haar.moment_quadrature(n, a)
        return row

    def check(row):
        problems = []
        if "gaussian" in row and row["gaussian"] != row["exact"]:
            problems.append(f"Gaussian model {row['gaussian']} != exact {row['exact']}")
        if "quadrature" in row and not abs(row["exact"] - row["quadrature"]) <= 1e-8:
            problems.append(f"quadrature {row['quadrature']!r} != exact {row['exact']}")
        return problems

    return Op(f"moment_usp|{n}|{a.format()}", call, check, lambda row: str(row["exact"]))


# ---------------------------------------------------------------------------
# exact: the heavy exact engine

EXACT_F = "0:1 1:1/2 2:1/3 3:1/4"


def exact(sym, seed: int, quick: bool):
    """One huge partition, and linstat's expansion, which calls moment_usp
    once per multiset; m stops at 8 (m = 9 alone takes 4 s), so that a run
    makes several passes."""
    moments, linstat = sym.moments, sym.linstat
    big = sym.partitions.Partition({1: 6, 2: 3, 3: 2} if quick else {1: 30, 2: 15, 3: 10})
    ops = [Op(f"moment_usp|30|{big.format()}", lambda: {"value": moments.moment_usp(30, big)}, _no_check, _value)]
    f = linstat.FourierTestFn.parse(EXACT_F)
    for m in range(2, 5 if quick else 9):
        ops.append(
            Op(
                f"statistic_moment_exact|400|100|{m}|{EXACT_F}",
                lambda m=m: {"value": linstat.statistic_moment_exact(400, 100, m, f)},
                lambda row: [] if isinstance(row["value"], (int, Fraction)) else ["value is not exact"],
                _value,
            )
        )
    return ops, []


# ---------------------------------------------------------------------------
# mc: Monte Carlo oracles against the exact moments, 5 sigma


def mc(sym, seed: int, quick: bool):
    """Small n exposes the Python overhead per batch, n = 30 the linear
    algebra.  A pass draws 2*10^5 samples at n = 1, 10^5 at n = 3 and 2048
    per statistic at n = 30, the last split into 12 ops so that op_tail_s,
    with 10 ops beyond it, is an n = 30 op."""
    moments, haar, linstat, Partition = sym.moments, sym.haar, sym.linstat, sym.partitions.Partition
    rng = random.Random(f"mc:{seed}")
    # (n, partition, samples per op, ops per pass)
    configs = [(1, "1^4", 5_000, 2), (3, "2^2", 2_000, 2), (30, "1^2", 128, 1)] if quick else [
        (1, "1^4", 20_000, 10), (3, "2^2", 10_000, 10), (30, "1^2", 256, 8)
    ]
    ops = []
    for n, text, samples, copies in configs:
        a = Partition.parse(text)
        for copy in range(copies):
            cfg = haar.MCConfig(n, samples, rng.getrandbits(32))
            ops.append(
                Op(
                    f"moment_mc|{n}|{text}|{samples}|{copy}",
                    lambda n=n, a=a, cfg=cfg: {"mc": [haar.moment_mc(n, a, cfg)]},
                    lambda row, n=n, a=a: _five_sigma(row["mc"], [moments.moment_usp(n, a)]),
                )
            )

    f0 = linstat.FourierTestFn.parse("0:1")
    samples = 128 if quick else 512
    for copy in range(1 if quick else 4):
        cfg = haar.MCConfig(30, samples, rng.getrandbits(32))
        ops.append(
            Op(
                f"statistic_moments_mc|30|30|2,4|0:1|{samples}|{copy}",
                lambda cfg=cfg: {"mc": linstat.statistic_moments_mc(30, 30, (2, 4), f0, cfg)},
                lambda row: _five_sigma(row["mc"], [linstat.statistic_moment_exact(30, 30, m, f0) for m in (2, 4)]),
            )
        )

    small = haar.MCConfig(2, 2 * haar.MC_BLOCK_SIZE + 100, rng.getrandbits(32))
    a11 = Partition({1: 2})

    def thread_invariance(_row):
        one = haar.moment_mc(2, a11, small, threads=1)
        two = haar.moment_mc(2, a11, small, threads=2)
        return [] if repr(one) == repr(two) else [f"threads=1 gives {one!r}, threads=2 gives {two!r}"]

    return ops, [Op("mc.thread_invariance", dict, thread_invariance)]


def _five_sigma(estimates, references) -> list[str]:
    problems = []
    for (mean, stderr), ref in zip(estimates, references):
        if not (stderr > 0 and abs(mean - float(ref)) <= 5 * stderr):
            problems.append(f"estimate {mean!r} +- {stderr!r} is not within 5 sigma of {ref}")
    return problems


# ---------------------------------------------------------------------------
# ffield: the F_q layer; every op pays for a fresh PrimeField, as a CLI run does


def ffield(sym, seed: int, quick: bool):
    """q = 7 for the genus-2 average, q = 5 for the explicit formula and
    q = 19 for the prime table keep a pass near 4 s, so that a run makes
    several passes."""
    ff, moments, Partition = sym.ffield, sym.moments, sym.partitions.Partition
    ops = []
    for q in (3, 5, 7) if quick else (3, 5, 7, 11, 13, 17, 19, 23):
        for text in ("1^2", "2^1", "1^4", "2^2"):
            ops.append(_empirical_op(ff, moments, Partition, q, 1, text))
    if not quick:
        ops.append(_empirical_op(ff, moments, Partition, 7, 2, "2^2"))
        ops.append(_explicit_formula_op(ff, q=5, n=2, j_max=3))
        ops.append(_primes_op(ff, q=19, d=3))
    for q in (5, 13) if quick else (5, 13, 29):
        for text in ("1^2", "2^1", "2^2"):
            ops.append(_square_op(ff, moments, Partition, q, text))
    for q, n, text in ((5, 1, "2^2"), (7, 1, "2^2"), (5, 1, "1^2 2^2")):
        ops.append(_distinct_op(ff, Partition, q, n, text))
    return ops, []


def _empirical_op(ff, moments, Partition, q, n, text):
    a = Partition.parse(text)

    def check(row):
        ref = moments.moment_usp(n, a)
        fitted = abs(row["value"] - ref) * math.sqrt(q)
        return [] if fitted <= 10 else [f"|{row['value']!r} - {ref}| sqrt(q) = {fitted:.3f} > 10"]

    return Op(
        f"empirical_moment|q={q}|n={n}|{text}",
        lambda: {"value": ff.empirical_moment(ff.PrimeField(q), n, a)},
        check,
        lambda row: repr(row["value"]),
    )


def _explicit_formula_op(ff, q, n, j_max):
    """Newton power sums of the L-polynomials against -sum Lambda(Q) (h/Q)."""

    def call():
        field = ff.PrimeField(q)
        rows = ff.hyperelliptic_rows(field, n)
        coeffs = ff.l_polynomials_batch(field, n, rows)
        newton = np.array(
            [ff.frobenius_power_sums(ff.LPolynomial(q, n, tuple(int(v) for v in c)), j_max) for c in coeffs],
            dtype=np.int64,
        )
        sums = np.stack([ff.weighted_char_sums(field, rows, j, "all_prime_powers") for j in range(1, j_max + 1)], axis=1)
        return {"coeffs": coeffs, "newton": newton, "char_sums": sums}

    def check(row):
        return [] if np.array_equal(row["newton"], -row["char_sums"]) else ["Newton power sums != -char sums"]

    return Op(
        f"explicit_formula|q={q}|n={n}|j<={j_max}",
        call,
        check,
        lambda row: digest((row["coeffs"].tolist(), row["newton"].tolist())),
    )


def _primes_op(ff, q, d):
    def check(row):
        want = gauss_count(q, d)
        return [] if len(row["primes"]) == want else [f"{len(row['primes'])} primes, Gauss count {want}"]

    return Op(
        f"primes_of_degree|q={q}|d={d}",
        lambda: {"primes": ff.primes_of_degree(ff.PrimeField(q), d)},
        check,
        lambda row: digest(row["primes"]),
    )


def _square_op(ff, moments, Partition, q, text):
    b = Partition.parse(text)

    def check(row):
        err = abs(row["value"] - moments.gaussian_moment(b))
        return [] if err <= 2.5 / q else [f"square sum {row['value']!r} is {err:.4f} > 2.5/q from g(b)"]

    return Op(
        f"square_contribution|q={q}|{text}",
        lambda: {"value": ff.square_contribution(ff.PrimeField(q), b)},
        check,
        lambda row: repr(row["value"]),
    )


def _distinct_op(ff, Partition, q, n, text):
    a = Partition.parse(text)
    weight = math.prod(j**m for j, m in a.items)

    def call():
        return {
            "S": ff.char_sum_distinct_primes(ff.PrimeField(q), n, a),
            "T": ff.char_sum_distinct_primes_weighted(ff.PrimeField(q), n, a),
        }

    def check(row):
        return [] if row["T"] == weight * row["S"] else [f"T = {row['T']} != {weight} S = {weight * row['S']}"]

    return Op(f"char_sum_distinct_primes|q={q}|n={n}|{text}", call, check, lambda row: f"{row['S']} {row['T']}")


WORKLOADS = {"sweep": sweep, "exact": exact, "mc": mc, "ffield": ffield}
GOLDEN_WORKLOADS = ("sweep", "exact", "ffield")
