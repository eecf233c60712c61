"""Narrow-bandwidth linear statistics of USp(2n) eigenangles.

The statistic W = sum_k f(theta_k) e(nu theta_k) over all 2n eigenangles (f
even, real, given by a finite Fourier table) is a finite sum of traces,
W = sum_j fhat(j) tr(U^(nu + j)), so its moments are expressible exactly
through trace moments:

    E[W^m] = sum_{j_1..j_m} fhat(j_1-nu) ... fhat(j_m-nu) E[prod tr(U^{j_i})]

Since tr(U^-j) = tr(U^j) and tr(U^0) = 2n, the indices +-j fold into one
weight F_j = fhat(j-nu) + fhat(-j-nu) and the index 0 into the constant
2n fhat(-nu).  ``statistic_moment_exact`` scales the coefficients to
integers by their common denominator before folding, as E[W^m] is
homogeneous of degree m in them, and hands the folded weights to
:func:`symp.moments.moment_usp_sum` as ``(j, F_j)`` blocks with free counts:
the free-count loop of the dynamic programme behind ``moment_usp``.  With
states (parts placed, size c, size d) it sums the whole expansion at once
instead of one moment per multi-index.  Rational tables give exact results;
float tables are converted exactly and the result is rounded once.
``statistic_moments_mc`` forms W per sample from the same folding of the
coefficients and the Monte Carlo trace columns of :func:`symp.haar.run_mc`.
"""

from __future__ import annotations

import itertools  # unused here: bench/tracer.py swaps linstat.itertools for a counting stand-in
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRange, ParseError, PreconditionViolated, integer, nonnegative_int, positive_int
from .haar import MCConfig, run_mc
from .moments import double_factorial, even_indicator, moment_usp_sum
from .partitions import Partition


@dataclass(frozen=True)
class FourierTestFn:
    """Finitely supported even real Fourier table fhat(j) = fhat(-j).

    ``coefficients`` maps j >= 0 to fhat(j); evenness is implicit.  Values
    are int or Fraction (exact paths) or finite float.
    """

    coefficients: tuple[tuple[int, object], ...]

    @classmethod
    def from_dict(cls, table: dict) -> "FourierTestFn":
        """The table {j: fhat(j)}, j >= 0.  Integers (numpy's too) become int,
        Fractions stay, other finite reals become float; anything else,
        bool included, raises PreconditionViolated naming the index."""
        items = []
        for key in sorted(table):
            j = integer(key, "Fourier index")
            if j < 0:
                raise PreconditionViolated("supply only j >= 0; evenness fills in the rest")
            value = _coefficient(j, table[key])
            if value != 0:
                items.append((j, value))
        return cls(tuple(items))

    @classmethod
    def parse(cls, text: str) -> "FourierTestFn":
        """Parse 'j:value' pairs, e.g. '0:1 1:0.5' -> fhat(0)=1, fhat(+-1)=1/2."""
        table: dict[int, object] = {}
        for token in text.split():
            try:
                j_text, value_text = token.split(":")
                j = int(j_text)
                value = Fraction(value_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad Fourier term {token!r}") from exc
            if j < 0:
                raise ParseError(f"negative Fourier index in {token!r}; supply only j >= 0, evenness fills in the rest")
            if j in table:
                raise ParseError(f"repeated Fourier index in {token!r}")
            table[j] = value
        return cls.from_dict(table)

    def value(self, j: int) -> object:
        j = abs(j)
        for idx, v in self.coefficients:
            if idx == j:
                return v
        return 0

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for _, v in self.coefficients)

    def norm_sq(self):
        """Parseval: integral of f^2 = sum over signed j of fhat(j)^2 (exact type)."""
        total = 0
        for j, v in self.coefficients:
            total += v * v if j == 0 else 2 * v * v
        return total


def _coefficient(j: int, value):
    """fhat(j) as an int, a Fraction or a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PreconditionViolated(f"Fourier coefficient {j} = {value!r} is not a real number")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, Fraction):
        return value
    if not math.isfinite(value):
        raise PreconditionViolated(f"Fourier coefficient {j} = {value!r} is not finite")
    return float(value)


def _folded_weights(nu: int, pairs) -> dict[int, object]:
    """The weights F_i of W = sum_i F_i tr(U^i), i >= 0, from (j, fhat(j)) pairs.

    W = sum over signed j of fhat(j) tr(U^(nu + j)), and tr(U^-i) = tr(U^i),
    so the indices nu + s (s = +-j) fold onto |nu + s|:
    F_i = sum_{s = +-j, |nu + s| = i} fhat(j).
    """
    folded: dict[int, object] = {}
    for j, v in pairs:
        for s in {j, -j}:
            folded[abs(nu + s)] = folded.get(abs(nu + s), 0) + v
    return folded


def statistic_moment_exact(n: int, nu: int, m: int, f: FourierTestFn):
    """E[W^m] via the trace-moment expansion; Fraction/int when f is rational,
    float otherwise (a float table is converted exactly and rounded once).

    n and m must be non-negative integers and nu an integer
    (PreconditionViolated otherwise).  Every multi-index within the Fourier
    support must induce a partition of size <= 4n+1: the widest is m copies
    of the widest index |nu + s| (s = +-j, fhat(j) != 0), and OutOfRange
    names it and the largest m in range when it does not.  The weights are
    scaled to integers by the common denominator of f's coefficients before
    folding.
    """
    n = nonnegative_int(n, "n")
    nu = integer(nu, "nu")
    m = nonnegative_int(m, "moment order m")
    coefficients = [(j, Fraction(v)) for j, v in f.coefficients if v != 0]
    widest = max((abs(nu + s) for j, _ in coefficients for s in (j, -j)), default=0)
    if m * widest > 4 * n + 1:
        raise OutOfRange(
            f"m = {m} copies of index {widest} need partition {Partition({widest: m})} of size {m * widest}"
            f" > 4n+1 = {4 * n + 1}; m <= {(4 * n + 1) // widest} is in range"
        )
    scale = math.lcm(*(v.denominator for _, v in coefficients))
    folded = _folded_weights(nu, [(j, v.numerator * (scale // v.denominator)) for j, v in coefficients])
    blocks = [(j, w) for j, w in folded.items() if j and w]
    value = Fraction(moment_usp_sum(n, m, blocks, 2 * n * folded.get(0, 0)), scale**m)
    if not f.is_exact():
        return float(value)
    return int(value) if value.denominator == 1 else value


def statistic_moment_gaussian(n: int, nu: int, m: int, f: FourierTestFn) -> float:
    """Gaussian main term: eta_m (m-1)!! ||f||^m |nu|^(m/2).

    W's law is symmetric in nu (the angles come in pairs +-theta), so the
    term depends on |nu| only, like the exact moment.
    """
    nonnegative_int(n, "n")
    nu = integer(nu, "nu")
    m = nonnegative_int(m, "moment order m")
    if even_indicator(m) == 0:
        return 0.0
    return double_factorial(m - 1) * float(f.norm_sq()) ** (m // 2) * float(abs(nu)) ** (m / 2)


def _w_power_stat(traces: np.ndarray, weights: tuple[float, ...], ms: tuple[int, ...]) -> np.ndarray:
    """W^m per sample for each m, with W = sum_i F_i tr(U^i)."""
    w = traces @ np.array(weights)
    return np.stack([w**m for m in ms], axis=1)


def statistic_moments_mc(
    n: int,
    nu: int,
    ms: tuple[int, ...],
    f: FourierTestFn,
    cfg: MCConfig,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Monte Carlo (estimate, stderr) of E[W^m] for each m, from one shared
    sample stream (identical to separate equal-seed runs, just cheaper).
    n and every m must be non-negative integers and nu an integer; no
    orders give [] without a draw; threads must be an integer >= 1."""
    n = nonnegative_int(n, "n")
    nu = integer(nu, "nu")
    ms = tuple(nonnegative_int(m, "moment order m") for m in ms)
    positive_int(threads, "threads")
    if not ms and cfg.n == n:  # run_mc rejects a config for another n
        return []
    pairs = [(j, float(v)) for j, v in f.coefficients]
    folded = sorted((i, v) for i, v in _folded_weights(nu, pairs).items() if v)
    indices = tuple(i for i, _ in folded)
    weights = tuple(v for _, v in folded)
    return run_mc(n, cfg, _w_power_stat, (indices, weights, ms), len(ms), threads)

