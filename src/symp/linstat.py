"""Narrow-bandwidth linear statistics of USp(2n) eigenangles.

The statistic W = sum_k f(theta_k) e(nu theta_k) over all 2n eigenangles (f
even, real, given by a finite Fourier table) is a finite sum of traces,
W = sum_j fhat(j) tr(U^(nu + j)), so its moments are expressible exactly
through trace moments:

    E[W^m] = sum_{j_1..j_m} fhat(j_1-nu) ... fhat(j_m-nu) E[prod tr(U^{j_i})]

Since tr(U^-j) = tr(U^j) and tr(U^0) = 2n, the indices +-j fold into one
weight F_j = fhat(j-nu) + fhat(-j-nu) and the index 0 into the constant
2n fhat(-nu).  ``statistic_moment_exact`` hands these weights, scaled to
integers by their common denominator, to :func:`symp.moments.moment_usp_sum`
as ``(j, F_j)`` blocks with free counts: the free-count loop of the dynamic
programme behind ``moment_usp``.  With states (parts placed, size c,
size d) it sums the whole expansion at once instead of one moment per
multi-index.  Rational tables give exact results; float tables are converted
exactly and the result is rounded once.  ``statistic_moments_mc`` forms W
per sample from the same folded weights and the Monte Carlo trace columns
of :func:`symp.haar.run_mc`.
"""

from __future__ import annotations

import itertools  # unused here: bench/tracer.py swaps linstat.itertools for a counting stand-in
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRange, ParseError
from .haar import MCConfig, run_mc
from .moments import double_factorial, even_indicator, integer, moment_usp_sum, nonnegative_int
from .partitions import Partition


@dataclass(frozen=True)
class FourierTestFn:
    """Finitely supported even real Fourier table fhat(j) = fhat(-j).

    ``coefficients`` maps j >= 0 to fhat(j); evenness is implicit.  Values may
    be int/Fraction (exact paths) or float.
    """

    coefficients: tuple[tuple[int, object], ...]

    @classmethod
    def from_dict(cls, table: dict) -> "FourierTestFn":
        items = []
        for key in sorted(table):
            j = integer(key, "Fourier index")
            if j < 0:
                raise ValueError("supply only j >= 0; evenness fills in the rest")
            if table[key] != 0:
                items.append((j, table[key]))
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

    @property
    def max_index(self) -> int:
        return max((j for j, _ in self.coefficients), default=0)

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for _, v in self.coefficients)

    def norm_sq(self):
        """Parseval: integral of f^2 = sum over signed j of fhat(j)^2 (exact type)."""
        total = 0
        for j, v in self.coefficients:
            total += v * v if j == 0 else 2 * v * v
        return total


def _folded_weights(nu: int, f: FourierTestFn, number) -> dict[int, object]:
    """The weights F_i of W = sum_i F_i tr(U^i), i >= 0, as `number`s.

    W = sum over signed j of fhat(j) tr(U^(nu + j)), and tr(U^-i) = tr(U^i),
    so the indices nu + s (s = +-j) fold onto |nu + s|:
    F_i = sum_{s = +-j, |nu + s| = i} fhat(j).
    """
    folded: dict[int, object] = {}
    for j, v in f.coefficients:
        for s in {j, -j}:
            folded[abs(nu + s)] = folded.get(abs(nu + s), 0) + number(v)
    return folded


def statistic_moment_exact(n: int, nu: int, m: int, f: FourierTestFn):
    """E[W^m] via the trace-moment expansion; Fraction/int when f is rational,
    float otherwise (a float table is converted exactly and rounded once).

    n and m must be non-negative integers and nu an integer
    (PreconditionViolated otherwise).  Every multi-index within the Fourier
    support must induce a partition of size <= 4n+1; otherwise OutOfRange
    reports the first offending multi-index.
    """
    n = nonnegative_int(n, "n")
    nu = integer(nu, "nu")
    m = nonnegative_int(m, "moment order m")
    folded = _folded_weights(nu, f, Fraction)
    widest = max((abs(nu + s) for j, v in f.coefficients if v != 0 for s in (j, -j)), default=0)
    if m * widest > 4 * n + 1:
        _raise_out_of_range(n, nu, m, f)
    scale = math.lcm(*(v.denominator for v in folded.values()))
    blocks = [(j, int(v * scale)) for j, v in sorted(folded.items()) if j and v]
    zero_weight = 2 * n * int(folded.get(0, 0) * scale)
    value = Fraction(moment_usp_sum(n, m, blocks, zero_weight), scale**m)
    if not f.is_exact():
        return float(value)
    return int(value) if value.denominator == 1 else value


def _raise_out_of_range(n: int, nu: int, m: int, f: FourierTestFn) -> None:
    """Raise OutOfRange for the first multi-index, in the order of
    ``itertools.combinations_with_replacement`` over the ascending indices
    nu + s (s = +-j, fhat(j) != 0), whose partition exceeds 4n+1.

    That order is lexicographic, so the first one is built greedily: each
    position takes the smallest index v, not below the previous one, that
    leaves size + |v| + (positions left) max(|v|, |largest index|) > 4n+1.
    """
    pool = sorted({nu + s for j, v in f.coefficients if v != 0 for s in (j, -j)})
    multiset, size = [], 0
    for left in range(m - 1, -1, -1):
        start = pool.index(multiset[-1]) if multiset else 0
        v = next(v for v in pool[start:] if size + abs(v) + left * max(abs(v), abs(pool[-1])) > 4 * n + 1)
        multiset.append(v)
        size += abs(v)
    a = Partition(Counter(abs(idx) for idx in multiset if idx))
    raise OutOfRange(f"multi-index {tuple(multiset)} needs partition {a} of size {a.size} > 4n+1 = {4 * n + 1}")


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
    orders give [] without a draw."""
    n = nonnegative_int(n, "n")
    nu = integer(nu, "nu")
    ms = tuple(nonnegative_int(m, "moment order m") for m in ms)
    if not ms and cfg.n == n:  # run_mc rejects a config for another n
        return []
    folded = sorted((i, v) for i, v in _folded_weights(nu, f, float).items() if v)
    indices = tuple(i for i, _ in folded)
    weights = tuple(v for _, v in folded)
    return run_mc(n, cfg, _w_power_stat, (indices, weights, ms), len(ms), threads)


def statistic_moment_mc(
    n: int, nu: int, m: int, f: FourierTestFn, cfg: MCConfig, threads: int = 1
) -> tuple[float, float]:
    """Sample mean and standard error of W^m over Haar USp(2n)."""
    return statistic_moments_mc(n, nu, (m,), f, cfg, threads)[0]
