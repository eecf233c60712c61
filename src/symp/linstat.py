"""Narrow-bandwidth linear statistics of USp(2n) eigenangles.

The statistic sum_k f(theta_k) e(nu theta_k) over all 2n eigenangles (f even,
real, given by a finite Fourier table) has moments expressible exactly through
trace moments:

    E[W^m] = sum_{j_1..j_m} fhat(j_1-nu) ... fhat(j_m-nu) E[prod tr(U^{j_i})]

Since tr(U^-j) = tr(U^j) and tr(U^0) = 2n, the indices +-j fold into one
weight F_j = fhat(j-nu) + fhat(-j-nu) and the index 0 into the constant
2n fhat(-nu).  ``statistic_moment_exact`` hands these weights, scaled to
integers by their common denominator, to :func:`symp.moments.moment_usp_sum`,
the dynamic programme behind ``moment_usp``; with states (parts placed,
size c, size d) it sums the whole expansion at once instead of one moment per
multi-index.  Rational tables give exact results; float tables are converted
exactly and the result is rounded once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRange, ParseError, PreconditionViolated
from .haar import EigenAngles, MCConfig, run_mc
from .moments import double_factorial, even_indicator, moment_usp_sum, nonnegative_int
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
        for j in sorted(table):
            if j < 0:
                raise ValueError("supply only j >= 0; evenness fills in the rest")
            if table[j] != 0:
                items.append((int(j), table[j]))
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

    def evaluate(self, theta: float) -> float:
        acc = 0.0
        for j, v in self.coefficients:
            term = float(v)
            acc += term if j == 0 else 2.0 * term * math.cos(2.0 * math.pi * j * theta)
        return acc


def l2_norm(f: FourierTestFn) -> float:
    return math.sqrt(float(f.norm_sq()))


def linear_statistic(f: FourierTestFn, nu: int, e: EigenAngles) -> float:
    """sum over all 2n eigenangles +-theta_k of f(theta) e(nu theta).

    Real because f is even and the angles come in conjugate pairs; computed
    in the folded form sum_k 2 f(theta_k) cos(2 pi nu theta_k).
    """
    return math.fsum(
        2.0 * f.evaluate(t) * math.cos(2.0 * math.pi * nu * t) for t in e.theta
    )


def statistic_moment_exact(n: int, nu: int, m: int, f: FourierTestFn):
    """E[W^m] via the trace-moment expansion; Fraction/int when f is rational,
    float otherwise (a float table is converted exactly and rounded once).

    n and m must be non-negative integers (PreconditionViolated otherwise).
    Every multi-index within the Fourier support must induce a partition of
    size <= 4n+1; otherwise OutOfRange reports the first offending
    multi-index.
    """
    n = nonnegative_int(n, "n")
    m = nonnegative_int(m, "moment order m")
    # fold the trace indices nu + s (s = +-j) onto |nu + s|: F_0 = fhat(nu)
    # and F_j = fhat(j - nu) + fhat(j + nu), since tr(U^-j) = tr(U^j)
    folded: dict[int, Fraction] = {}
    for j, v in f.coefficients:
        for s in {j, -j}:
            folded[abs(nu + s)] = folded.get(abs(nu + s), 0) + Fraction(v)
    widest = max((abs(nu + s) for j, v in f.coefficients if v != 0 for s in (j, -j)), default=0)
    if m * widest > 4 * n + 1:
        _raise_out_of_range(n, nu, m, f)
    scale = math.lcm(*(v.denominator for v in folded.values()))
    blocks = [(j, int(v * scale), None) for j, v in sorted(folded.items()) if j and v]
    zero_weight = 2 * n * int(folded.get(0, 0) * scale)
    value = Fraction(moment_usp_sum(n, m, blocks, zero_weight), scale**m)
    if not f.is_exact():
        return float(value)
    return int(value) if value.denominator == 1 else value


def _raise_out_of_range(n: int, nu: int, m: int, f: FourierTestFn) -> None:
    """Raise OutOfRange for the first multi-index, in enumeration order,
    whose partition exceeds 4n+1."""
    signed_support = sorted({j for j, _ in f.coefficients} | {-j for j, _ in f.coefficients})
    for multiset in itertools.combinations_with_replacement([nu + s for s in signed_support], m):
        if any(f.value(idx - nu) == 0 for idx in multiset):
            continue
        parts: dict[int, int] = {}
        for idx in multiset:
            if idx:
                parts[abs(idx)] = parts.get(abs(idx), 0) + 1
        a = Partition(parts)
        if a.size > 4 * n + 1:
            raise OutOfRange(
                f"multi-index {multiset} needs partition {a} of size {a.size} > 4n+1 = {4 * n + 1}"
            )


def statistic_moment_gaussian(n: int, nu: int, m: int, f: FourierTestFn) -> float:
    """Gaussian main term: eta_m (m-1)!! ||f||^m |nu|^(m/2).

    W's law is symmetric in nu (the angles come in pairs +-theta), so the
    term depends on |nu| only, like the exact moment.
    """
    if even_indicator(m) == 0:
        return 0.0
    return double_factorial(m - 1) * float(f.norm_sq()) ** (m // 2) * float(abs(nu)) ** (m / 2)


def moment_main_term(n: int, nu: int, a: Partition) -> int:
    """Leading term of moment_usp(n, a) for partitions concentrated near nu:
    (prod_j eta_{a_j} (a_j - 1)!!) * nu^(len(a)/2).

    Requires size(a) <= 4n+1 and support within |j - nu| <= sqrt(n).
    """
    if a.size > 4 * n + 1:
        raise PreconditionViolated(f"size {a.size} > 4n+1 = {4 * n + 1}")
    root = math.sqrt(n)
    for j in a.support:
        if abs(j - nu) > root:
            raise PreconditionViolated(f"part {j} outside |j - {nu}| <= sqrt({n})")
    factor = 1
    for _, mult in a.items:
        if mult % 2 == 1:
            return 0
        factor *= double_factorial(mult - 1)
    return factor * nu ** (a.length // 2)


def _w_power_stat(theta: np.ndarray, nu: int, coeff_items: tuple, ms: tuple[int, ...]) -> np.ndarray:
    fvals = np.zeros_like(theta)
    for j, v in coeff_items:
        if j == 0:
            fvals += v
        else:
            fvals += 2.0 * v * np.cos(2.0 * math.pi * j * theta)
    w = (2.0 * fvals * np.cos(2.0 * math.pi * nu * theta)).sum(axis=1)
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
    sample stream (identical to separate equal-seed runs, just cheaper)."""
    coeff_items = tuple((j, float(v)) for j, v in f.coefficients)
    return run_mc(n, cfg, _w_power_stat, (nu, coeff_items, tuple(ms)), len(ms), threads)


def statistic_moment_mc(
    n: int, nu: int, m: int, f: FourierTestFn, cfg: MCConfig, threads: int = 1
) -> tuple[float, float]:
    """Sample mean and standard error of W^m over Haar USp(2n)."""
    return statistic_moments_mc(n, nu, (m,), f, cfg, threads)[0]
