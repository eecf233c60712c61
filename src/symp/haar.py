"""Numerical oracles for Haar integrals over USp(2n).

Two independent routes to ``int prod_j tr(U^j)^{a_j} dU``:

* ``moment_quadrature`` -- tensor Gauss quadrature against the eigenvalue
  density.  Substituting x_k = cos(2 pi theta_k) turns the density into the
  Chebyshev-second-kind weight sqrt(1-x^2) times the squared Vandermonde in
  the x_k, so Gauss nodes for that weight integrate the (polynomial)
  integrand *exactly* once the per-variable degree bound is met.  The result
  is authoritative up to float roundoff, not an approximation.  The
  integrand is symmetric in the n angles and vanishes where two nodes
  coincide, so the rule sums over the C(N, n) strictly increasing node
  tuples instead of the N^n grid.  The tuples and their normalised weights
  are built once per (n, N), and the trace-sum column tr(U^j) over the
  tuples once per (n, N, j), each kept read-only in a small bounded table;
  a call only multiplies its parts' columns into the weights.  The
  quadrature evaluates every partition in full, odd sizes included, which
  the exact side answers by parity: it is the route that checks them.

* ``moment_mc`` / ``run_mc`` -- i.i.d. Haar samples from the Killip-Nenciu
  tridiagonal model of the beta = 2 Jacobi ensemble: 2n-1 independent Beta
  draws give an n x n Jacobi matrix J whose eigenvalues are the
  2 cos 2 pi theta_k.  Statistics read the trace columns tr(U^j) with no
  eigensolve: tr(U^j) = tr C_j(J) for the Chebyshev recursion
  C_j = x C_{j-1} - C_{j-2}, read from banded powers of J.  The recursion
  runs over a block in equal chunks of samples, sized to stay in cache,
  and no value depends on the chunking.  Sampling is blocked, and a block
  is named by its index alone: the index fixes its sample count and its
  seed, spawned from the root seed.  Every block is drawn by the same
  helper, reduces each statistic column as one contiguous row, and the
  blocks merge in index order, so results are bit-for-bit reproducible and
  independent of the worker count.  The tests check the sampler against
  group elements built by quaternionic Gram-Schmidt at small n, against
  the angles of a dense eigensolve of the same Jacobi matrices, and the
  chunked recursion against one whole-batch pass, bit for bit.

Angles are measured in turns (eigenvalues e^(2 pi i theta)), theta in
[0, 1/2], throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import get_context

import numpy as np

from .errors import BudgetExceeded, PreconditionViolated, integer, nonnegative_int, positive_int
from .partitions import Partition

MC_BLOCK_SIZE = 4096  # samples per seed block; fixed so results never depend on threads
_MAX_GRID_POINTS = 4_000_000
# cap on one band array of the trace recursion per chunk of samples, sized so
# that a chunk's recursion stays in cache (the best of a measured grid from
# 256 KiB to 4 MiB); no value depends on it
_CHUNK_BYTES = 768 << 10


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
        positive_int(self.sample_count, "sample_count")
        nonnegative_int(self.rng_seed, "rng_seed")


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
    margin-0 bound, raises PreconditionViolated, and so does an n that is
    not a non-negative integer or a node count that is not an integer.
    Guarded to n <= 4 and N^n grid points at most 4 000 000 for N nodes per
    angle (BudgetExceeded).  The sum runs over the strictly increasing node
    tuples of ``_quadrature_grid``: sum_tuples weight *
    prod_j (sum_k 2 cos(j phi_k))^{a_j}, in ``longdouble``, with each
    column sum_k 2 cos(j phi_k) read from ``_trace_column``.
    """
    n = nonnegative_int(n, "n")
    if cfg is None:
        cfg = QuadratureConfig(n, default_nodes(n, a))
    elif cfg.n != n:
        raise PreconditionViolated(f"QuadratureConfig is for n = {cfg.n}, not n = {n}")
    elif integer(cfg.nodes_per_dim, "nodes_per_dim") < default_nodes(n, a, margin=0):
        raise PreconditionViolated(
            f"{cfg.nodes_per_dim} nodes per dimension are below {default_nodes(n, a, margin=0)},"
            f" the fewest that integrate {a.format()} exactly at n = {n}"
        )
    count = cfg.nodes_per_dim
    if n > 4:
        raise BudgetExceeded(f"quadrature limited to n <= 4, got n = {n}")
    if count**n > _MAX_GRID_POINTS:
        raise BudgetExceeded(f"grid {count}^{n} exceeds {_MAX_GRID_POINTS} points")

    integrand = _quadrature_grid(n, count)[2]
    for j, m in a.items:
        integrand = integrand * _trace_column(n, count, j) ** m
    return float(integrand.sum())


@lru_cache(maxsize=32)
def _quadrature_grid(n: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss rule on the strictly increasing n-tuples of `count` nodes.

    Returns the (C(count, n), n) array of node indices, the node angles
    phi = arccos(x) = 2 pi theta and the weight prod_k w_k times the squared
    Vandermonde prod_{p<r} (2x_p - 2x_r)^2 per tuple, scaled to sum 1.  The
    integrand is symmetric in the angles and vanishes where two nodes
    coincide, so the full tensor sum is n! times the sum over these tuples
    and the n! cancels in the self-normalised ratio.  Keyed by (n, count)
    alone; the arrays are read-only.
    """
    x, w = quadrature_nodes(count)
    tuples = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(count), n)), dtype=np.intp
    ).reshape(math.comb(count, n), n)  # n = 0: one empty tuple
    weight = w[tuples].prod(axis=1)
    for p, r in itertools.combinations(range(n), 2):
        weight *= (2 * x[tuples[:, p]] - 2 * x[tuples[:, r]]) ** 2
    weight /= weight.sum()
    angle = np.arccos(x)
    for array in (tuples, angle, weight):
        array.flags.writeable = False
    return tuples, angle, weight


@lru_cache(maxsize=128)
def _trace_column(n: int, count: int, j: int) -> np.ndarray:
    """tr(U^j) = sum_k 2 cos(j phi_k) on each tuple of ``_quadrature_grid(n,
    count)``, in ``longdouble``; read-only.  Keyed by (n, count, j) alone, so
    every partition with a part j at that grid reads the same column."""
    tuples, angle, _ = _quadrature_grid(n, count)
    column = (2 * np.cos(j * angle))[tuples].sum(axis=1)
    column.flags.writeable = False
    return column


# ---------------------------------------------------------------------------
# Monte Carlo sampling


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


def _jacobi_batch(n: int, batch: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (batch, n) and off-diagonals (batch, n-1) of `batch` Jacobi
    matrices whose spectra are the x = 2 cos 2 pi theta of Haar USp(2n).

    Under x = 2 cos 2 pi theta the n fundamental angles of Haar USp(2n) form
    the beta = 2 Jacobi ensemble on [-2, 2] with weight (1 - x^2/4)^(1/2).
    Killip and Nenciu (Matrix models for circular ensembles, IMRN 2004,
    Theorem 2) realise it as the spectrum of an n x n real tridiagonal
    (Jacobi) matrix built by the Geronimus relations from 2n-1 independent
    Beta variables alpha_k, with alpha_{-1} = alpha_{2n-1} = -1:

        b_{k+1} = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2},
        a_{k+1} = sqrt((1 - alpha_{2k-1}) (1 - alpha_{2k}^2) (1 + alpha_{2k+1})).

    All draws of a block come first, so the stream does not depend on how
    the matrices are used afterwards.
    """
    if n == 0:  # USp(0) is the trivial group: empty matrices
        return np.empty((batch, 0)), np.empty((batch, 0))
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
    return diag, off


def _band_traces(diag: np.ndarray, off: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    """tr(U^j) for each j in `indices` (sorted), with no eigensolve.

    C_j(2 cos phi) = 2 cos(j phi), so tr(U^j) = tr C_j(J) for the Jacobi
    matrix J, where C_0 = 2, C_1 = x and C_k = x C_{k-1} - C_{k-2}.  C_k(J)
    is symmetric with bandwidth min(k, n-1) and is stored by its upper
    diagonals, band[d, i, :] = C_k(J)[i, i+d] over the samples (zero past
    the matrix), so a step of the recursion costs O(n k) per sample.  C_j
    C_k = C_{j+k} + C_{|j-k|} turns traces of the high half into Frobenius
    products of the low half:

        tr C_{2k} = ||C_k||_F^2 - 2n,    tr C_{2k+1} = <C_k, C_{k+1}>_F - tr J,

    so only C_0 .. C_{ceil(j_max/2)} are built.  The cost is O(n j_max^2)
    per sample, below one dense eigensolve while j_max stays near n or
    under.

    The batch runs in equal chunks of samples, sized so that one band array
    stays within _CHUNK_BYTES and a chunk's recursion stays in cache, on
    three band buffers allocated once: C_{k-2}, C_{k-1} and the products of
    a step.  Every step is elementwise per sample, and no chunk of a batch
    of two or more holds a single sample (einsum sums a one-sample batch in
    another order), so no value depends on the chunking.
    """
    batch, n = diag.shape
    top = (indices[-1] + 1) // 2 if indices else 0
    width = max(0, min(top, n - 1))
    per_sample = (width + 2) * n  # C_k's diagonals and one zero row, which shifts read
    longest = max(1, _CHUNK_BYTES // (8 * max(per_sample, 1)))
    chunks = max(1, min(-(-batch // longest), batch // 2))  # equal, and of one sample only if batch is
    bands = np.empty((3, per_sample * -(-batch // chunks)))  # C_{k-2}, C_{k-1} and a step's products
    columns = {j: column for column, j in enumerate(indices)}
    out = np.empty((batch, len(indices)))
    if 0 in columns:
        out[:, columns[0]] = 2.0 * n
    for chunk in range(chunks):
        lo, hi = batch * chunk // chunks, batch * (chunk + 1) // chunks
        prev, cur, scratch = (band[: per_sample * (hi - lo)].reshape(width + 2, n, hi - lo) for band in bands)
        prev.fill(0.0)
        cur.fill(0.0)
        b = np.ascontiguousarray(diag[lo:hi].T)  # samples last: every shift below is a contiguous run
        a = np.zeros((n, hi - lo))  # a[i] = J[i, i+1]; the last is 0
        a[: n - 1] = off[lo:hi].T
        prev[0] = 2.0
        cur[0] = b
        cur[1] = a
        trace_j = b.sum(axis=0)
        for k in range(1, top + 1):
            rows = min(k, width) + 2
            if k > 1:
                c, step, t = cur[:rows], prev[:rows], scratch[:rows]  # C_k = J C_{k-1} - C_{k-2}, in C_{k-2}'s place
                np.multiply(b, c, out=t)
                np.subtract(t, step, out=step)  # t - s is -s + t exactly
                t = t[:-1, :-1]
                np.multiply(a[:-1], c[1:, :-1], out=t)  # J[i, i-1] C[i-1, i+d]
                step[:-1, 1:] += t
                np.multiply(a[:-1], c[:-1, 1:], out=t)  # J[i, i+1] C[i+1, i+d], d >= 1
                step[1:, :-1] += t
                np.multiply(a[:-1], c[1, :-1], out=t[0])  # J[i, i+1] C[i+1, i], d = 0
                step[0, :-1] += t[0]
                prev, cur = cur, prev
            if 2 * k - 1 in columns:
                out[lo:hi, columns[2 * k - 1]] = _frobenius(prev[:rows], cur[:rows]) - trace_j
            if 2 * k in columns:
                out[lo:hi, columns[2 * k]] = _frobenius(cur[:rows], cur[:rows]) - 2.0 * n
    return out


def _frobenius(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<X, Y>_F per sample for symmetric X, Y stored by upper diagonals."""
    return 2.0 * np.einsum("dib,dib->b", x, y) - np.einsum("ib,ib->b", x[0], y[0])


def _block_jacobi(cfg: MCConfig, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobi matrices of seed block `index`, MC_BLOCK_SIZE of them (the
    last block holds the rest): the one draw behind every Monte Carlo run."""
    count = min(MC_BLOCK_SIZE, cfg.sample_count - index * MC_BLOCK_SIZE)
    seed = np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(index,))
    return _jacobi_batch(cfg.n, count, np.random.default_rng(seed))


def _mc_block(cfg: MCConfig, stat_fn, stat_args: tuple, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Worker: the means and centred sums of squares (M2) of the statistic
    columns over seed block `index`.  Each column is reduced as one
    contiguous row, so its sums run in the same order whether the columns
    are computed together or in separate equal-seed runs."""
    traces = _band_traces(*_block_jacobi(cfg, index), stat_args[0])
    count = len(traces)
    rows = np.array(np.reshape(stat_fn(traces, *stat_args[1:]), (count, -1)).T, dtype=float, order="C")
    means = rows.sum(axis=1) / count
    rows -= means[:, None]  # a copy of the statistic's output: centred and squared in place
    np.multiply(rows, rows, out=rows)
    return means, rows.sum(axis=1)


def run_mc(
    n: int,
    cfg: MCConfig,
    stat_fn,
    stat_args: tuple,
    n_stats: int,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Blocked, seed-deterministic Monte Carlo driver.

    ``stat_args[0]`` is the sorted tuple of trace indices j that the
    statistic reads; ``stat_fn(traces, *stat_args[1:])`` maps the (count,
    len(stat_args[0])) array of tr(U^j) over a block (index 0 is the
    constant 2n) to its ``n_stats`` per-sample columns (one column may come
    as a (count,) array).  Returns (mean, stderr) per column.  A block is
    named by its index i alone: it holds samples i MC_BLOCK_SIZE onwards,
    drawn from the seed spawned with key (i,), and reports the mean and M2
    of every column, reduced as contiguous rows.  The blocks are merged in
    index order, all columns at once, by the pairwise update of Chan, Golub
    and LeVeque (1983), which avoids the cancellation of sum(x^2) - N
    mean^2; so the output is identical for every ``threads`` value.  ``n``
    must be a non-negative integer equal to ``cfg.n`` and the statistic
    must have ``n_stats`` columns, and ``threads`` must be an integer >= 1
    (PreconditionViolated otherwise).
    """
    n = nonnegative_int(n, "n")
    threads = positive_int(threads, "threads")
    if cfg.n != n:
        raise PreconditionViolated(f"MCConfig is for n = {cfg.n}, not n = {n}")
    if not stat_args:
        raise PreconditionViolated("stat_args must start with the tuple of trace indices")
    indices = stat_args[0]
    if list(indices) != sorted(set(indices)) or (indices and indices[0] < 0):
        raise PreconditionViolated(f"trace indices {indices} are not sorted, distinct and non-negative")
    total = cfg.sample_count
    block = partial(_mc_block, cfg, stat_fn, stat_args)
    blocks = -(-total // MC_BLOCK_SIZE)
    if threads > 1 and blocks > 1:
        with get_context("fork").Pool(processes=min(threads, blocks)) as pool:
            results = pool.map(block, range(blocks), chunksize=1)
    else:
        results = map(block, range(blocks))  # lazy: a wrong column count stops at the first block

    seen, mean, m2 = 0, 0.0, 0.0
    for means, m2s in results:
        if len(means) != n_stats:
            raise PreconditionViolated(f"the statistic gives {len(means)} column(s), not n_stats = {n_stats}")
        count = min(MC_BLOCK_SIZE, total - seen)
        delta = means - mean
        merged = seen + count
        mean += delta * count / merged
        m2 += m2s + delta * delta * seen * count / merged
        seen = merged
    stderr = np.sqrt(m2 / (total - 1) / total) if total > 1 else np.zeros_like(m2)
    return [(float(mu), float(se)) for mu, se in zip(mean, stderr)]


def moment_mc(n: int, a: Partition, cfg: MCConfig, threads: int = 1) -> tuple[float, float]:
    """Sample mean and standard error of prod_j tr(U^j)^{a_j} over Haar USp(2n).
    ``threads`` must be an integer >= 1, even for the empty partition."""
    n = nonnegative_int(n, "n")
    positive_int(threads, "threads")
    if not a and cfg.n == n:  # run_mc rejects a config for another n
        return (1.0, 0.0)
    exponents = tuple(m for _, m in a.items)
    [(mean, stderr)] = run_mc(n, cfg, _trace_monomial, (a.support, exponents), 1, threads)
    return mean, stderr


def _trace_monomial(traces: np.ndarray, exponents: tuple[int, ...]) -> np.ndarray:
    """prod_j tr(U^j)^{a_j} per sample, from the columns of the support."""
    out = np.ones(traces.shape[0])
    for column, m in enumerate(exponents):
        out = out * traces[:, column] ** m
    return out

