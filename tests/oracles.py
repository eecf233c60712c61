"""Test-only references for ``symp.partitions``, ``symp.haar``, ``symp.linstat``
and ``symp.ffield``.

The library enumerates partitions by a successor rule on (part,
multiplicity) pairs and builds each one unchecked; the references here
descend recursively through the parts and build every partition through the
validating constructor from a dict.

The library samples Jacobi matrices from the Killip-Nenciu model, reads
traces through the Chebyshev recursion in cache-sized chunks and sums its
Gauss rule over increasing node tuples; these are the independent
references the tests check it against: eigenangles by a dense eigensolve of
the same Jacobi matrices, the recursion as one whole-batch pass (the
bit-for-bit reference for every chunking), group elements by quaternionic
Gram-Schmidt, the Weyl eigenangle density, traces from angles, the linear
statistic from its definition, the full tensor-grid Gauss rule and the tuple
rule with its trace sums formed per call rather than read from a cache.  Angles
are in turns, one ascending tuple per sample.

The F_q helpers at the end work one polynomial at a time (factorization,
Euler's criterion, the von Mangoldt function, the prime powers of one
degree, the translates of one polynomial) where the library works by sieves
over whole tables or by closed forms in the prime counts; the tests check
the library against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from symp import haar
from symp.errors import BudgetExceeded, PreconditionViolated, integer, nonnegative_int
from symp.ffield import (
    Poly,
    PrimeField,
    _monic_polys_where,
    _squarefree_codes,
    poly_degree,
    poly_divmod,
    poly_is_monic,
    poly_mod,
    poly_mul,
    poly_pow_mod,
    poly_trim,
    primes_of_degree,
)
from symp.haar import _MAX_GRID_POINTS, MCConfig, default_nodes, quadrature_nodes
from symp.linstat import FourierTestFn
from symp.moments import double_factorial
from symp.partitions import Partition


def partitions_by_descent(k: int) -> Iterator[Partition]:
    """Partitions of size exactly k, largest part first, by recursive
    descent over the next part, each built from a dict of multiplicities."""

    def descend(remaining: int, max_part: int, acc: list[int]) -> Iterator[list[int]]:
        if remaining == 0:
            yield acc
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from descend(remaining - part, part, acc + [part])

    for shape in descend(k, k if k else 1, []):
        mults: dict[int, int] = {}
        for part in shape:
            mults[part] = mults.get(part, 0) + 1
        yield Partition(mults)


def sub_partitions_by_dict(a: Partition) -> Iterator[Partition]:
    """All b <= a in lexicographic order of the multiplicity vector, each
    built from a dict of its nonzero multiplicities."""
    support = a.support
    for mults in itertools.product(*[range(m + 1) for _, m in a.items]):
        yield Partition({j: m for j, m in zip(support, mults) if m})


def jacobi_angles(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenangles (in turns, ascending) of Jacobi matrices, by a dense real eigvalsh."""
    batch, n = diag.shape
    idx = np.arange(n)
    jacobi = np.zeros((batch, n, n))
    jacobi[:, idx, idx] = diag
    jacobi[:, idx[:-1], idx[1:]] = jacobi[:, idx[1:], idx[:-1]] = off
    x = np.linalg.eigvalsh(jacobi) if n else np.empty((batch, 0))
    # x ascending gives theta descending; reverse to ascending angles
    return np.arccos(np.clip(0.5 * x[:, ::-1], -1.0, 1.0)) / (2.0 * math.pi)


def angle_stream(cfg: MCConfig) -> Iterator[tuple[float, ...]]:
    """The cfg.sample_count eigenangle tuples of the samples ``symp.haar.run_mc``
    draws for cfg, in order: the same seed blocks, each solved densely."""
    for index in range(-(-cfg.sample_count // haar.MC_BLOCK_SIZE)):
        for row in jacobi_angles(*haar._block_jacobi(cfg, index)):
            yield tuple(float(t) for t in row)


def run_mc_by_columns(n: int, cfg: MCConfig, stat_fn, stat_args: tuple, n_stats: int) -> list[tuple[float, float]]:
    """``symp.haar.run_mc`` reduced one column at a time: the same seed
    blocks and traces, each column's block mean as ``column.sum() / count``
    and the Chan-Golub-LeVeque merge in Python floats, grouped as
    ``m2 += m2s + cross``.  The library reduces all columns as contiguous
    rows and merges them as arrays; both orders of summation must agree
    bit for bit."""
    per_block = []
    for index in range(-(-cfg.sample_count // haar.MC_BLOCK_SIZE)):
        traces = haar._band_traces(*haar._block_jacobi(cfg, index), stat_args[0])
        count = len(traces)
        values = stat_fn(traces, *stat_args[1:]).reshape(count, -1)
        block = []
        for k in range(n_stats):
            column = values[:, k]
            mean = column.sum() / count
            centred = column - mean
            block.append((count, float(mean), float((centred * centred).sum())))
        per_block.append(block)
    out = []
    for k in range(n_stats):
        seen, mean, m2 = 0, 0.0, 0.0
        for block in per_block:
            count, block_mean, m2s = block[k]
            delta = block_mean - mean
            merged = seen + count
            mean += delta * count / merged
            cross = delta * delta * seen * count / merged
            m2 += m2s + cross
            seen = merged
        total = cfg.sample_count
        out.append((mean, math.sqrt(m2 / (total - 1) / total) if total > 1 else 0.0))
    return out


def band_traces_whole_batch(diag: np.ndarray, off: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    """``symp.haar._band_traces`` as one pass over the whole batch: fresh
    band arrays, a fresh temporary per product, and C_{k-2} negated before
    the terms of J C_{k-1} are added.  The library runs the same recursion
    in cache-sized chunks on reused buffers and subtracts C_{k-2} in one
    step; its columns must equal these bit for bit, for every chunking."""
    batch, n = diag.shape
    top = (indices[-1] + 1) // 2 if indices else 0
    width = max(0, min(top, n - 1))
    b = np.ascontiguousarray(diag.T)
    a = np.zeros((n, batch))
    a[: n - 1] = off.T
    prev = np.zeros((width + 2, n, batch))
    prev[0] = 2.0
    cur = np.zeros_like(prev)
    cur[0] = b
    cur[1] = a
    trace_j = b.sum(axis=0)
    columns = {j: column for column, j in enumerate(indices)}
    out = np.empty((batch, len(indices)))
    if 0 in columns:
        out[:, columns[0]] = 2.0 * n
    for k in range(1, top + 1):
        rows = min(k, width) + 2
        if k > 1:
            c, step = cur[:rows], prev[:rows]
            np.negative(step, out=step)
            step += b * c
            step[:-1, 1:] += a[:-1] * c[1:, :-1]
            step[1:, :-1] += a[:-1] * c[:-1, 1:]
            step[0, :-1] += a[:-1] * c[1, :-1]
            prev, cur = cur, prev
        if 2 * k - 1 in columns:
            out[:, columns[2 * k - 1]] = _frobenius_whole_batch(prev[:rows], cur[:rows]) - trace_j
        if 2 * k in columns:
            out[:, columns[2 * k]] = _frobenius_whole_batch(cur[:rows], cur[:rows]) - 2.0 * n
    return out


def _frobenius_whole_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<X, Y>_F per sample for symmetric X, Y stored by upper diagonals."""
    return 2.0 * np.einsum("dib,dib->b", x, y) - np.einsum("ib,ib->b", x[0], y[0])


def trace_power(theta: tuple[float, ...], j: int) -> float:
    """tr(U^j) = sum_k 2 cos(2 pi j theta_k)."""
    return math.fsum(2.0 * math.cos(2.0 * math.pi * j * t) for t in theta)


def weyl_weight_usp(theta: tuple[float, ...]) -> float:
    """Unnormalized eigenangle density of USp(2n):
    prod_{p<r} (2cos 2pi theta_p - 2cos 2pi theta_r)^2 * prod_k (2 sin 2pi theta_k)^2."""
    cosv = [2.0 * math.cos(2.0 * math.pi * t) for t in theta]
    weight = 1.0
    for p in range(len(cosv)):
        for r in range(p + 1, len(cosv)):
            weight *= (cosv[p] - cosv[r]) ** 2
    for t in theta:
        weight *= (2.0 * math.sin(2.0 * math.pi * t)) ** 2
    return weight


def _haar_matrix_batch(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """`batch` Haar matrices from the unitary symplectic group, as (2n, 2n)
    complex blocks with columns [v_1..v_n | Tv_1..Tv_n].

    Quaternionic Gram-Schmidt: draw Gaussian columns c_k in C^{2n}, project
    against the span of the previous columns and their quaternionic partners
    T(c) = (-conj(w), conj(u)) for c = (u, w), and normalize by the (real,
    positive) norm -- so the factorization is the unique quaternionic QR and
    left invariance of the Gaussian law makes the result Haar.

    The sampler in ``symp.haar`` needs only Jacobi matrices and never
    builds group elements; this is the reference the tests check it against.
    """
    two_n = 2 * n
    cols = np.empty((batch, two_n, two_n), dtype=np.complex128)
    for k in range(n):
        c = rng.standard_normal((batch, two_n)) + 1j * rng.standard_normal((batch, two_n))
        if k:
            prev = cols[:, :, : 2 * k]
            coef = np.matmul(prev.conj().transpose(0, 2, 1), c[:, :, None])
            c = c - np.matmul(prev, coef)[:, :, 0]
        c = c / np.linalg.norm(c, axis=1, keepdims=True)
        cols[:, :, 2 * k] = c
        cols[:, :, 2 * k + 1] = np.concatenate([-c[:, n:].conj(), c[:, :n].conj()], axis=1)
    order = np.empty(two_n, dtype=int)
    order[:n] = 2 * np.arange(n)
    order[n:] = 2 * np.arange(n) + 1
    return cols[:, :, order]


def moment_quadrature_per_call(n: int, a: Partition, count: int | None = None) -> float:
    """``symp.haar.moment_quadrature``'s tuple rule on `count` nodes per
    angle (default ``default_nodes(n, a)``, the library's count) with every
    trace-sum column formed afresh in the call: at the default, the
    reference, bit for bit, for the library's cached columns."""
    tuples, angle, integrand = haar._quadrature_grid(n, default_nodes(n, a) if count is None else count)
    for j, m in a.items:
        cos_j = 2 * np.cos(j * angle)
        integrand = integrand * cos_j[tuples].sum(axis=1) ** m
    return float(integrand.sum())


def moment_quadrature_full_grid(n: int, a: Partition, count: int | None = None) -> float:
    """Self-normalized quadrature of prod_j tr(U^j)^{a_j} over USp(2n), summed
    over the full count^n tensor grid.

    ``symp.haar.moment_quadrature`` sums the same rule over the strictly
    increasing node tuples only; this is the reference it is checked against.

    `count` nodes per angle, by default ``default_nodes(n, a)``; exact (up
    to roundoff) down to ``default_nodes(n, a) - 2``, the fewest that meet
    the degree bound, and fewer raise PreconditionViolated.  Guarded to
    n <= 4 / moderate grids.
    """
    fewest = default_nodes(n, a) - 2
    if count is None:
        count = default_nodes(n, a)
    elif count < fewest:
        raise PreconditionViolated(
            f"{count} nodes per dimension are below {fewest}, the fewest that integrate {a.format()} exactly at n = {n}"
        )
    if n > 4:
        raise BudgetExceeded(f"quadrature limited to n <= 4, got n = {n}")
    if count**n > _MAX_GRID_POINTS:
        raise BudgetExceeded(f"grid {count}^{n} exceeds {_MAX_GRID_POINTS} points")

    x, w = quadrature_nodes(count)
    theta = np.arccos(x) / (2 * np.longdouble(math.pi))

    def on_axis(vec: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * n
        shape[axis] = count
        return vec.reshape(shape)

    weight = np.ones((1,) * n, dtype=np.longdouble)
    for axis in range(n):
        weight = weight * on_axis(w, axis)
    vandermonde_sq = np.ones((1,) * n, dtype=np.longdouble)
    for p in range(n):
        for r in range(p + 1, n):
            diff = 2 * on_axis(x, p) - 2 * on_axis(x, r)
            vandermonde_sq = vandermonde_sq * diff * diff

    integrand = weight * vandermonde_sq
    denominator = integrand.sum()
    for j, m in a.items:
        tj = np.zeros((1,) * n, dtype=np.longdouble)
        cos_j = 2 * np.cos(2 * np.longdouble(math.pi) * j * theta)
        for axis in range(n):
            tj = tj + on_axis(cos_j, axis)
        integrand = integrand * tj**m
    return float(integrand.sum() / denominator)


def fourier_value(f: FourierTestFn, theta: float) -> float:
    """f(theta) = sum over signed j of fhat(j) e(j theta), in float."""
    acc = 0.0
    for j, v in f.coefficients:
        term = float(v)
        acc += term if j == 0 else 2.0 * term * math.cos(2.0 * math.pi * j * theta)
    return acc


def linear_statistic(f: FourierTestFn, nu: int, theta: tuple[float, ...]) -> float:
    """W = sum over all 2n eigenangles +-theta_k of f(theta) e(nu theta).

    Real because f is even and the angles come in conjugate pairs; computed
    in the folded form sum_k 2 f(theta_k) cos(2 pi nu theta_k).
    """
    return math.fsum(2.0 * fourier_value(f, t) * math.cos(2.0 * math.pi * nu * t) for t in theta)


def l2_norm(f: FourierTestFn) -> float:
    return math.sqrt(float(f.norm_sq()))


def moment_main_term(n: int, nu: int, a: Partition) -> int:
    """Leading term of moment_usp(n, a) for partitions concentrated near nu:
    (prod_j eta_{a_j} (a_j - 1)!!) * nu^(len(a)/2).

    Requires n >= 0 and nu integers, size(a) <= 4n+1 and support within
    |j - nu| <= sqrt(n).
    """
    n = nonnegative_int(n, "n")
    nu = integer(nu, "nu")
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


# ---------------------------------------------------------------------------
# F_q[x], one polynomial at a time


def chi(field: PrimeField, v: int) -> int:
    """Quadratic character of F_q (0 at 0), by Euler's criterion."""
    r = pow(v % field.q, (field.q - 1) // 2, field.q)
    return -1 if r == field.q - 1 else r


def poly_eval(field: PrimeField, f: Poly, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % field.q
    return acc


def monic_polys(field: PrimeField, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, lexicographic in low coeffs."""
    for low in itertools.product(range(field.q), repeat=degree):
        yield low + (1,)


def factorize(field: PrimeField, f: Poly) -> tuple[tuple[Poly, int], ...]:
    """Factorization of a monic polynomial into (prime, exponent) pairs."""
    if not poly_is_monic(f):
        raise ValueError("factorize expects a monic polynomial")
    factors: dict[Poly, int] = {}
    rest = f
    while poly_degree(rest) > 0:
        deg = poly_degree(rest)
        hit = None
        for d in range(1, deg // 2 + 1):
            for p in primes_of_degree(field, d):
                quot, rem = poly_divmod(field, rest, p)
                if not rem:
                    hit = (p, quot)
                    break
            if hit:
                break
        if hit is None:
            factors[rest] = factors.get(rest, 0) + 1
            break
        p, rest = hit
        factors[p] = factors.get(p, 0) + 1
    return tuple(sorted(factors.items()))


def von_mangoldt(field: PrimeField, f: Poly) -> int:
    """deg P if f = P^e for a prime P, else 0."""
    if poly_degree(f) < 1:
        return 0
    factors = factorize(field, f)
    if len(factors) == 1:
        return poly_degree(factors[0][0])
    return 0


def prime_power_terms(field: PrimeField, j: int) -> list[tuple[Poly, int, int]]:
    """(P, e, Lambda) for every prime P (e = 1) and prime square P^2 (e = 2)
    of degree j."""
    return [(p, e, j // e) for e in (1, 2) if j % e == 0 for p in primes_of_degree(field, j // e)]


def legendre_symbol(field: PrimeField, h: Poly, p: Poly) -> int:
    """Quadratic-residue symbol of h modulo a prime p, by Euler's criterion."""
    d = poly_degree(p)
    r = poly_mod(field, h, p)
    if not r:
        return 0
    if d == 1:
        return chi(field, r[0])
    t = poly_pow_mod(field, r, (field.q**d - 1) // 2, p)
    return 1 if t == (1,) else -1


def jacobi_symbol(field: PrimeField, h: Poly, f: Poly) -> int:
    """Jacobi symbol (h/f): product of prime symbols over the factorization."""
    if not poly_is_monic(f):
        raise ValueError("jacobi_symbol expects a monic denominator")
    result = 1
    for p, e in factorize(field, f):
        s = legendre_symbol(field, h, p)
        if s == 0:
            return 0
        if e % 2 == 1:
            result *= s
    return result


def translates(field: PrimeField, f: Poly) -> frozenset[Poly]:
    """{f(x + v) : v in F_q}, each by Horner's rule in tuple arithmetic."""
    out = set()
    for v in range(field.q):
        acc: Poly = ()
        for c in reversed(f):
            shifted = list(poly_mul(field, acc, (v, 1))) or [0]
            shifted[0] = (shifted[0] + c) % field.q
            acc = poly_trim(shifted)
        out.add(acc)
    return frozenset(out)


def squarefree_monics(field: PrimeField, degree: int) -> list[Poly]:
    """All squarefree monic polynomials of the given degree, c_{degree-1}
    varying fastest (the ``monic_polys`` order)."""
    return _monic_polys_where(field, degree, _squarefree_codes(field, degree))


def rows_to_polys(rows: np.ndarray) -> list[Poly]:
    return [poly_trim(tuple(int(v) for v in row)) for row in rows]
