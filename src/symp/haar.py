"""Numerical oracles for Haar integrals over USp(2n).

Two independent routes to ``int prod_j tr(U^j)^{a_j} dU``:

* ``moment_quadrature`` -- tensor Gauss quadrature against the eigenvalue
  density.  Substituting x_k = cos(2 pi theta_k) turns the density into the
  Chebyshev-second-kind weight sqrt(1-x^2) times the squared Vandermonde in
  the x_k, so Gauss nodes for that weight integrate the (polynomial)
  integrand *exactly* once the per-variable degree bound is met.  The result
  is authoritative up to float roundoff, not an approximation.

* ``moment_mc`` / ``sample_haar_usp`` -- i.i.d. Haar eigenangles from the
  Killip-Nenciu tridiagonal model of the beta = 2 Jacobi ensemble: 2n-1
  independent Beta draws and one real n x n eigvalsh per sample.  Sampling
  is blocked with per-block seeds derived from the root seed, and every
  sampler draws a block through the same helper, so results are bit-for-bit
  reproducible and independent of the worker count.  Quaternionic
  Gram-Schmidt (``_haar_matrix_batch``) builds actual group elements; the
  tests check the angle sampler against it at small n.

Angles are measured in turns (eigenvalues e^(2 pi i theta)), theta in
[0, 1/2], throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Iterator

import numpy as np

from .errors import CostGuard, PreconditionViolated
from .partitions import Partition

MC_BLOCK_SIZE = 4096  # samples per seed block; fixed so results never depend on threads
_MAX_GRID_POINTS = 4_000_000
# cap on the dense Jacobi matrices of one eigvalsh call: one whole block up to n = 32
_EIGH_BYTES = 32 << 20


@dataclass(frozen=True)
class EigenAngles:
    """Fundamental eigenangles of a USp(2n) matrix, in turns, ascending."""

    theta: tuple[float, ...]

    def __post_init__(self):
        last = 0.0
        for t in self.theta:
            if not 0.0 <= t <= 0.5:
                raise ValueError(f"angle {t} outside [0, 1/2]")
            if t < last:
                raise ValueError("angles must be ascending")
            last = t

    @property
    def n(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class QuadratureConfig:
    n: int
    nodes_per_dim: int


@dataclass(frozen=True)
class MCConfig:
    n: int
    sample_count: int
    rng_seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


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


def quadrature_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights for the weight sqrt(1-x^2) on [-1, 1].

    Closed form: x_i = cos(i pi/(N+1)), w_i = pi/(N+1) sin^2(i pi/(N+1));
    exact for polynomial degree <= 2N-1.
    """
    i = np.arange(1, count + 1, dtype=np.longdouble)
    angles = i * np.longdouble(math.pi) / (count + 1)
    return np.cos(angles), (np.longdouble(math.pi) / (count + 1)) * np.sin(angles) ** 2


def default_nodes(n: int, a: Partition, margin: int = 2) -> int:
    """Smallest exact node count for the self-normalized moment integrand.

    Per variable the squared Vandermonde contributes degree 2(n-1) and the
    trace product at most size(a), so 2N-1 >= 2(n-1) + size(a) is exact.
    """
    degree = 2 * (n - 1) + a.size
    return (degree + 2) // 2 + margin


def moment_quadrature(n: int, a: Partition, cfg: QuadratureConfig | None = None) -> float:
    """Self-normalized quadrature of prod_j tr(U^j)^{a_j} over USp(2n).

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


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def _haar_matrix_batch(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """`batch` Haar matrices from the unitary symplectic group, as (2n, 2n)
    complex blocks with columns [v_1..v_n | Tv_1..Tv_n].

    Quaternionic Gram-Schmidt: draw Gaussian columns c_k in C^{2n}, project
    against the span of the previous columns and their quaternionic partners
    T(c) = (-conj(w), conj(u)) for c = (u, w), and normalize by the (real,
    positive) norm -- so the factorization is the unique quaternionic QR and
    left invariance of the Gaussian law makes the result Haar.

    Not used by the samplers below, which need only eigenangles; it is the
    group-element reference the tests check them against.
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


def _jacobi_beta_params(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Beta parameters (s_k, t_k), k = 0..2n-2, of Killip-Nenciu's Theorem 2
    for beta = 2 and a = b = 1/2: alpha_k has density proportional to
    (1-x)^(s_k - 1) (1+x)^(t_k - 1) on [-1, 1]."""
    k = np.arange(2 * n - 1)
    even = k % 2 == 0
    symmetric = (2 * n - k - 2) / 2 + 1.5
    s = np.where(even, symmetric, (2 * n - k - 3) / 2 + 3.0)
    t = np.where(even, symmetric, (2 * n - k - 1) / 2)
    return s, t


def _haar_angles_batch(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenangles (in turns, ascending) of `batch` Haar USp(2n) samples.

    Under x = 2 cos 2 pi theta the n fundamental angles of Haar USp(2n) form
    the beta = 2 Jacobi ensemble on [-2, 2] with weight (1 - x^2/4)^(1/2).
    Killip and Nenciu (Matrix models for circular ensembles, IMRN 2004,
    Theorem 2) realise it as the spectrum of an n x n real tridiagonal
    (Jacobi) matrix built by the Geronimus relations from 2n-1 independent
    Beta variables alpha_k, with alpha_{-1} = alpha_{2n-1} = -1:

        b_{k+1} = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2},
        a_{k+1} = sqrt((1 - alpha_{2k-1}) (1 - alpha_{2k}^2) (1 + alpha_{2k+1})).

    All draws come first, so the stream does not depend on how the
    eigensolves are chunked.
    """
    if n == 0:  # USp(0) is the trivial group: no angles
        return np.empty((batch, 0))
    s, t = _jacobi_beta_params(n)
    alpha = np.full((batch, 2 * n + 1), -1.0)  # column i holds alpha_{i-1}
    alpha[:, 1:-1] = 2.0 * rng.beta(t, s, size=(batch, 2 * n - 1)) - 1.0
    even = alpha[:, 1::2]  # alpha_{2k}
    odd_before = alpha[:, 0:-1:2]  # alpha_{2k-1}
    odd_after = alpha[:, 2::2]  # alpha_{2k+1}
    even_before = np.zeros_like(even)  # alpha_{2k-2}; its factor is 0 at k = 0
    even_before[:, 1:] = even[:, :-1]
    diag = (1.0 - odd_before) * even - (1.0 + odd_before) * even_before
    off = np.sqrt((1.0 - odd_before) * (1.0 - even * even) * (1.0 + odd_after))[:, :-1]

    x = np.empty((batch, n))
    step = max(1, _EIGH_BYTES // (8 * n * n))
    idx = np.arange(n)
    for lo in range(0, batch, step):
        hi = min(lo + step, batch)
        jacobi = np.zeros((hi - lo, n, n))
        jacobi[:, idx, idx] = diag[lo:hi]
        jacobi[:, idx[:-1], idx[1:]] = off[lo:hi]
        jacobi[:, idx[1:], idx[:-1]] = off[lo:hi]
        x[lo:hi] = np.linalg.eigvalsh(jacobi)
    # x ascending gives theta descending; reverse to ascending angles
    return np.arccos(np.clip(0.5 * x[:, ::-1], -1.0, 1.0)) / (2.0 * math.pi)


def _blocks(cfg: MCConfig) -> Iterator[tuple[int, int]]:
    """(block index, sample count) of each seed block, in order."""
    for index, start in enumerate(range(0, cfg.sample_count, MC_BLOCK_SIZE)):
        yield index, min(MC_BLOCK_SIZE, cfg.sample_count - start)


def _block_angles(n: int, cfg: MCConfig, block_index: int, count: int) -> np.ndarray:
    """The eigenangles of one seed block: the single draw every sampler uses."""
    seed = np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(block_index,))
    return _haar_angles_batch(n, count, np.random.default_rng(seed))


def trace_product_batch(theta: np.ndarray, items: tuple[tuple[int, int], ...]) -> np.ndarray:
    """prod_j tr(U^j)^{a_j} per sample for an angle batch (rows = samples)."""
    out = np.ones(theta.shape[0])
    for j, m in items:
        tj = (2.0 * np.cos(2.0 * math.pi * j * theta)).sum(axis=1)
        out = out * tj**m
    return out


def _mc_block(args) -> tuple:
    """Worker: sample count, column means and centred sums of squares (M2)
    of the statistic columns over one block."""
    n, cfg, block_index, count, stat_fn, stat_args = args
    values = stat_fn(_block_angles(n, cfg, block_index, count), *stat_args)  # (count, n_stats)
    if values.ndim == 1:
        values = values[:, None]
    # per-column reductions: bit-identical whether columns are computed
    # together or in separate equal-seed runs
    means = []
    m2s = []
    for k in range(values.shape[1]):
        column = values[:, k]
        mean = column.sum() / count
        centred = column - mean
        means.append(float(mean))
        m2s.append(float((centred * centred).sum()))
    return block_index, count, means, m2s


def run_mc(
    n: int,
    cfg: MCConfig,
    stat_fn,
    stat_args: tuple,
    n_stats: int,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Blocked, seed-deterministic Monte Carlo driver.

    ``stat_fn(theta, *stat_args)`` maps an angle batch to per-sample
    statistic columns; returns (mean, stderr) per column.  Each block
    reports (count, mean, M2) per column, and the blocks are merged in block
    order by the pairwise update of Chan, Golub and LeVeque (1983), which
    avoids the cancellation of sum(x^2) - N mean^2.  The block decomposition
    and the merge order are fixed, so the output is identical for every
    ``threads`` value.  ``cfg.n`` must equal ``n``.
    """
    if cfg.n != n:
        raise PreconditionViolated(f"MCConfig is for n = {cfg.n}, not n = {n}")
    blocks = [(n, cfg, index, count, stat_fn, stat_args) for index, count in _blocks(cfg)]
    if threads > 1 and len(blocks) > 1:
        with get_context("fork").Pool(processes=threads) as pool:
            results = pool.map(_mc_block, blocks, chunksize=1)
        results.sort(key=lambda r: r[0])
    else:
        results = [_mc_block(b) for b in blocks]

    total = cfg.sample_count
    out = []
    for col in range(n_stats):
        seen, mean, m2 = 0, 0.0, 0.0
        for _, count, means, m2s in results:
            delta = means[col] - mean
            merged = seen + count
            mean += delta * count / merged
            m2 += m2s[col] + delta * delta * seen * count / merged
            seen = merged
        stderr = math.sqrt(m2 / (total - 1) / total) if total > 1 else 0.0
        out.append((mean, stderr))
    return out


def moment_mc(n: int, a: Partition, cfg: MCConfig, threads: int = 1) -> tuple[float, float]:
    """Sample mean and standard error of prod_j tr(U^j)^{a_j} over Haar USp(2n)."""
    if not a and cfg.n == n:  # run_mc rejects a config for another n
        return (1.0, 0.0)
    [(mean, stderr)] = run_mc(n, cfg, trace_product_batch, (a.items,), 1, threads)
    return mean, stderr


def sample_haar_usp(cfg: MCConfig) -> Iterator[EigenAngles]:
    """Stream of cfg.sample_count i.i.d. Haar USp(2n) eigenangle sets.

    Draws the same blocks as run_mc, so a given (seed, n) always yields the
    same stream and moment_mc is its plain sample mean.
    """
    for index, count in _blocks(cfg):
        for row in _block_angles(cfg.n, cfg, index, count):
            yield EigenAngles(tuple(float(t) for t in row))
