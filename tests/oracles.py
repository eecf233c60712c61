"""Test-only references for ``symp.haar`` and ``symp.linstat``.

The library samples eigenangles from the Killip-Nenciu Jacobi model, reads
traces through the Chebyshev recursion and sums its Gauss rule over
increasing node tuples; these are the independent references the tests
check it against: group elements by quaternionic Gram-Schmidt, the Weyl
eigenangle density, traces from angles and the full tensor-grid Gauss rule.
The linear-statistic helpers at the end serve only tests.
"""

from __future__ import annotations

import math

import numpy as np

from symp.errors import CostGuard, PreconditionViolated
from symp.haar import _MAX_GRID_POINTS, EigenAngles, QuadratureConfig, default_nodes, quadrature_nodes
from symp.linstat import FourierTestFn
from symp.moments import double_factorial, integer, nonnegative_int
from symp.partitions import Partition


def trace_power(e: EigenAngles, j: int) -> float:
    """tr(U^j) = sum_k 2 cos(2 pi j theta_k)."""
    return math.fsum(2.0 * math.cos(2.0 * math.pi * j * t) for t in e.theta)


def weyl_weight_usp(e: EigenAngles) -> float:
    """Unnormalized eigenangle density of USp(2n):
    prod_{p<r} (2cos 2pi theta_p - 2cos 2pi theta_r)^2 * prod_k (2 sin 2pi theta_k)^2."""
    cosv = [2.0 * math.cos(2.0 * math.pi * t) for t in e.theta]
    weight = 1.0
    for p in range(len(cosv)):
        for r in range(p + 1, len(cosv)):
            weight *= (cosv[p] - cosv[r]) ** 2
    for t in e.theta:
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

    The samplers in ``symp.haar`` need only eigenangles and never build
    group elements; this is the reference the tests check them against.
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


def moment_quadrature_full_grid(n: int, a: Partition, cfg: QuadratureConfig | None = None) -> float:
    """Self-normalized quadrature of prod_j tr(U^j)^{a_j} over USp(2n), summed
    over the full count^n tensor grid.

    ``symp.haar.moment_quadrature`` sums the same rule over the strictly
    increasing node tuples only; this is the reference it is checked against.

    Exact (up to roundoff) whenever cfg.nodes_per_dim meets the
    ``default_nodes`` bound; an explicit config for another n, or below the
    margin-0 bound, raises PreconditionViolated.  Guarded to n <= 4 /
    moderate grids.
    """
    if cfg is None:
        cfg = QuadratureConfig(n, default_nodes(n, a))
    elif cfg.n != n:
        raise PreconditionViolated(f"QuadratureConfig is for n = {cfg.n}, not n = {n}")
    elif cfg.nodes_per_dim < default_nodes(n, a, margin=0):
        raise PreconditionViolated(
            f"{cfg.nodes_per_dim} nodes per dimension are below {default_nodes(n, a, margin=0)},"
            f" the fewest that integrate {a.format()} exactly at n = {n}"
        )
    count = cfg.nodes_per_dim
    if n > 4:
        raise CostGuard(f"quadrature limited to n <= 4, got n = {n}")
    if count**n > _MAX_GRID_POINTS:
        raise CostGuard(f"grid {count}^{n} exceeds {_MAX_GRID_POINTS} points")

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
