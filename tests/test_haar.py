import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import _haar_matrix_batch, angle_stream, jacobi_angles, moment_quadrature_full_grid
from oracles import band_traces_whole_batch, moment_quadrature_per_call, run_mc_by_columns, trace_power, weyl_weight_usp
from symp.errors import BudgetExceeded, PreconditionViolated
from symp import haar, linstat
from symp.haar import (
    MCConfig,
    _band_traces,
    _jacobi_batch,
    default_nodes,
    moment_mc,
    moment_quadrature,
    quadrature_nodes,
    run_mc,
)
from symp.linstat import FourierTestFn, statistic_moments_mc
from symp.moments import moment_usp
from symp.partitions import Partition, partitions_of_size_at_most


def test_trace_power_examples():
    assert trace_power((0.0,), 5) == pytest.approx(2.0)
    assert trace_power((0.25,), 2) == pytest.approx(-2.0)
    assert trace_power((0.5,), 1) == pytest.approx(-2.0)


def test_weyl_weight_examples():
    assert weyl_weight_usp((0.25,)) == pytest.approx(4.0)
    assert weyl_weight_usp((0.0,)) == pytest.approx(0.0)
    assert weyl_weight_usp((0.2, 0.2)) == pytest.approx(0.0)


def test_quadrature_nodes_integrate_weight():
    # integral of sqrt(1-x^2) over [-1,1] is pi/2; degree-0 exactness
    x, w = quadrature_nodes(5)
    assert float(w.sum()) == pytest.approx(math.pi / 2, rel=1e-14)
    # degree-2 check: integral of x^2 sqrt(1-x^2) = pi/8
    assert float((w * x * x).sum()) == pytest.approx(math.pi / 8, rel=1e-14)


def test_quadrature_closed_forms_n1():
    # hand integrals against the sin^2 density on USp(2)
    assert moment_quadrature(1, Partition()) == pytest.approx(1.0, abs=1e-12)
    assert moment_quadrature(1, Partition({1: 2})) == pytest.approx(1.0, abs=1e-9)
    assert moment_quadrature(1, Partition({1: 4})) == pytest.approx(2.0, abs=1e-9)
    assert moment_quadrature(1, Partition({2: 2})) == pytest.approx(2.0, abs=1e-9)


def test_quadrature_reflection_symmetry():
    for n in (1, 2, 3):
        for a in partitions_of_size_at_most(4 * n + 1):
            if a.size % 2 == 1:
                assert abs(moment_quadrature(n, a)) <= 1e-9


def test_quadrature_node_stability():
    # more nodes than the library's count give the same value, through the
    # tuple rule and the full grid alike
    for n, parts in [(1, {1: 4}), (2, {2: 2, 1: 1}), (3, {3: 1, 1: 3})]:
        a = Partition(parts)
        value = moment_quadrature(n, a)
        # conservative per-variable bound: 2(n-1) + size * max part
        conservative = (2 * (n - 1) + a.size * max(a.support) + 2) // 2 + 1
        for count in (default_nodes(n, a) + 7, conservative):
            assert moment_quadrature_per_call(n, a, count) == pytest.approx(value, abs=1e-10)
            assert moment_quadrature_full_grid(n, a, count) == pytest.approx(value, abs=1e-10)


def test_weyl_weight_consistent_with_quadrature():
    # crude trapezoid over the angle-space density against the Gauss rule
    import numpy as np

    grid = np.linspace(0.0, 0.5, 20_001)
    weight = np.array([weyl_weight_usp((t,)) for t in grid])
    for parts, expect in [({1: 2}, 1.0), ({1: 4}, 2.0), ({2: 1}, -1.0)]:
        a = Partition(parts)
        values = np.ones_like(grid)
        for j, m in a.items:
            values = values * np.array([trace_power((t,), j) for t in grid]) ** m
        trapezoid = np.trapezoid(values * weight, grid) / np.trapezoid(weight, grid)
        assert trapezoid == pytest.approx(expect, abs=1e-6)
        assert trapezoid == pytest.approx(moment_quadrature(1, a), abs=1e-6)


def test_quadrature_matches_exact_formula():
    # n = 0 sums over the one empty node tuple; n = 4 is 1 212 partitions
    for n in range(5):
        for a in partitions_of_size_at_most(4 * n + 1):
            assert moment_quadrature(n, a) == pytest.approx(moment_usp(n, a), abs=1e-8)


def test_cached_trace_columns_equal_per_call_sums():
    # the cached trace powers give the bits of forming every column and its
    # power in the call; odd sizes are summed in full, not answered by parity
    cases = [(n, a) for n in range(4) for a in partitions_of_size_at_most(4 * n + 1)]
    cases += [(4, a) for a in partitions_of_size_at_most(17)]  # 1 212 partitions
    for n, a in cases:
        assert repr(moment_quadrature(n, a)) == repr(moment_quadrature_per_call(n, a)), (n, a.format())
    for n, count, j in ((1, 5, 1), (3, 11, 13), (4, 11, 1)):
        column = haar._trace_power(n, count, j, 1)
        for m in (1, 2, 3, 7):
            power = haar._trace_power(n, count, j, m)
            assert power.shape == (math.comb(count, n),) and not power.flags.writeable
            # equal values and signs, not tobytes: longdouble pads with bytes
            # that carry no value and differ between arrays
            expected = column**m
            assert np.array_equal(power, expected), (n, count, j, m)
            assert np.array_equal(np.signbit(power), np.signbit(expected)), (n, count, j, m)
            with pytest.raises(ValueError):
                power[0] = 0


def test_table_store_is_bounded_in_bytes(monkeypatch):
    # a store of a few KB drops its oldest entries and keeps no entry larger
    # than itself, and no value moves
    cases = [(n, a) for n in range(4) for a in partitions_of_size_at_most(2 * n + 3)]
    expected = [repr(moment_quadrature(n, a)) for n, a in cases]
    cap = 4096
    monkeypatch.setattr(haar, "_TABLE_BYTES", cap)
    monkeypatch.setattr(haar, "_tables", {})
    monkeypatch.setattr(haar, "_table_bytes", 0)
    seen = set()
    for (n, a), value in zip(cases, expected):
        assert repr(moment_quadrature(n, a)) == value, (n, a.format())
        held = sum(haar._nbytes(entry) for entry in haar._tables.values())
        assert held == haar._table_bytes <= cap
        seen.update(haar._tables)
    assert len(seen) > len(haar._tables)  # entries were dropped
    grid = haar._quadrature_grid(3, 12)  # 220 tuples: over 5 KB of node indices alone
    assert haar._nbytes(grid) > cap and (3, 12) not in haar._tables
    assert grid[0].shape == (math.comb(12, 3), 3) and not grid[2].flags.writeable
    assert haar._quadrature_grid(3, 12) is not grid


def test_table_store_is_shared_by_threads(monkeypatch):
    # threads that fill and drain one small store keep its byte count equal
    # to what it holds, and their values unchanged
    cases = [(n, a) for n in range(4) for a in partitions_of_size_at_most(2 * n + 3)]
    expected = [repr(moment_quadrature(n, a)) for n, a in cases]
    cap = 8192
    monkeypatch.setattr(haar, "_TABLE_BYTES", cap)
    monkeypatch.setattr(haar, "_tables", {})
    monkeypatch.setattr(haar, "_table_bytes", 0)

    def run(start):
        for _ in range(3):
            for k in range(start, len(cases), 4):
                assert repr(moment_quadrature(*cases[k])) == expected[k], cases[k]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(run, start % 4) for start in range(8)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    held = sum(haar._nbytes(entry) for entry in haar._tables.values())
    assert held == haar._table_bytes <= cap


_N4_PARTITIONS = [
    Partition.parse(text)
    for text in (
        "",
        "1^2",
        "1^8",
        "2^4",
        "1^16",
        "1^17",
        "4^4",
        "8^2",
        "16^1",
        "17^1",
        "3^5",
        "1^3 2^1 3^1",
        "1^1 2^1 3^1 4^1 5^1",
    )
]


def test_tuple_rule_matches_full_grid():
    # the sum over increasing node tuples against the full count^n tensor
    # grid: the library at its own node count, the per-call tuple rule at 7
    # more
    cases = [(n, a) for n in (1, 2, 3) for a in partitions_of_size_at_most(4 * n + 1)]
    cases += [(4, a) for a in _N4_PARTITIONS]
    for n, a in cases:
        for extra in (0, 7):
            count = default_nodes(n, a) + extra
            reference = moment_quadrature_full_grid(n, a, count)
            value = moment_quadrature(n, a) if extra == 0 else moment_quadrature_per_call(n, a, count)
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference)), (n, a.format(), extra)


@pytest.mark.parametrize(
    "n,fault",
    [(-1, "n = -1 is negative"), (1.5, "n = 1.5 is not an integer")],
    ids=["negative", "fractional"],
)
def test_quadrature_rejects_bad_n(n, fault):
    # a negative n must not read as the value 0.0, nor a fractional one end
    # in a TypeError
    with pytest.raises(PreconditionViolated, match=fault):
        moment_quadrature(n, Partition({1: 2}))


def test_quadrature_rejects_too_few_nodes():
    # one node integrates 1^4 at n = 1 to 2e-64 instead of 2; the fewest
    # nodes that meet the degree bound, two below the library's count, are
    # already exact
    with pytest.raises(PreconditionViolated, match="below 3"):
        moment_quadrature_full_grid(1, Partition({1: 4}), 1)
    for n, a in [(1, Partition({1: 4})), (2, Partition({2: 2})), (3, Partition({1: 3, 3: 1}))]:
        fewest = default_nodes(n, a) - 2
        assert moment_quadrature_full_grid(n, a, fewest) == pytest.approx(moment_usp(n, a), abs=1e-9)
        assert moment_quadrature_per_call(n, a, fewest) == pytest.approx(moment_usp(n, a), abs=1e-9)


def test_config_for_another_n_is_rejected():
    # cfg.n and the n argument name the same group; a mismatch sampled
    # USp(2 cfg.n), or ignored cfg.n, without a word
    a = Partition({1: 2})
    with pytest.raises(PreconditionViolated, match="n = 3, not n = 1"):
        moment_mc(1, a, MCConfig(3, 1000, 0))
    with pytest.raises(PreconditionViolated, match="n = 3, not n = 1"):
        moment_mc(1, Partition(), MCConfig(3, 1000, 0))  # the empty product too
    with pytest.raises(PreconditionViolated, match="n = 3, not n = 1"):
        run_mc(1, MCConfig(3, 1000, 0), _offset_stat, ((1,), 0.0), 1)


def test_cost_guard():
    with pytest.raises(BudgetExceeded, match="n <= 4"):
        moment_quadrature(5, Partition({1: 2}))
    # a large partition needs more nodes: 56 per angle, 56^4 grid points
    with pytest.raises(BudgetExceeded, match=r"grid 56\^4 exceeds"):
        moment_quadrature(4, Partition({1: 100}))


def test_sampler_stream_properties():
    cfg = MCConfig(3, 25, 123)
    angles = list(angle_stream(cfg))
    assert len(angles) == 25
    for theta in angles:
        assert len(theta) == 3
        assert all(0.0 <= t <= 0.5 for t in theta)
        assert list(theta) == sorted(theta)
    # same seed, same stream
    assert list(angle_stream(cfg)) == angles


def test_sampler_unitarity_structure():
    # trace powers computed from sampled angles stay within [-2n, 2n]
    for theta in angle_stream(MCConfig(4, 10, 5)):
        for j in (1, 2, 5):
            assert abs(trace_power(theta, j)) <= 8.0 + 1e-9


def test_sampled_matrices_are_unitary_symplectic():
    rng = np.random.default_rng(2)
    q = _haar_matrix_batch(4, 16, rng)
    eye = np.eye(8)
    gram = np.matmul(q.conj().transpose(0, 2, 1), q)
    assert np.abs(gram - eye).max() < 1e-12  # unitary
    ev = np.linalg.eigvals(q[0])
    assert np.abs(np.abs(ev) - 1.0).max() < 1e-12  # unit circle
    # conjugate eigenvalue pairs: Hermitian-part spectrum is doubly degenerate
    h = 0.5 * (q + q.conj().transpose(0, 2, 1))
    w = np.linalg.eigvalsh(h)
    assert np.abs(w[:, ::2] - w[:, 1::2]).max() < 1e-12


def test_moment_mc_empty():
    assert moment_mc(2, Partition(), MCConfig(2, 100, 0)) == (1.0, 0.0)


def test_trivial_group_n0():
    assert list(angle_stream(MCConfig(0, 3, 1))) == [()] * 3
    assert moment_mc(0, Partition({1: 1}), MCConfig(0, 10, 1)) == (0.0, 0.0)


def test_moment_mc_determinism_and_thread_invariance():
    cfg = MCConfig(2, 20_000, 99)
    for parts in ({1: 2}, {5: 2}):  # j within the bandwidth of J at n = 2, then beyond it
        a = Partition(parts)
        r1 = moment_mc(2, a, cfg, threads=1)
        r2 = moment_mc(2, a, cfg, threads=1)
        r3 = moment_mc(2, a, cfg, threads=2)
        assert repr(r1) == repr(r2) == repr(r3)


def test_run_mc_opens_no_more_workers_than_blocks(monkeypatch):
    opened = []

    class SerialPool:  # records the pool size and runs the blocks in this process
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(haar, "get_context", lambda method: Context())
    a, cfg = Partition({1: 2}), MCConfig(1, 2 * haar.MC_BLOCK_SIZE, 0)
    assert repr(moment_mc(1, a, cfg, threads=64)) == repr(moment_mc(1, a, cfg, threads=1))
    assert opened == [2]


def test_moment_mc_against_exact_small():
    # 5 sigma at modest sample counts; exact values from the closed form
    cases = [(1, Partition({1: 4})), (2, Partition({2: 1})), (3, Partition({2: 2}))]
    for n, a in cases:
        est, se = moment_mc(n, a, MCConfig(n, 60_000, 7), threads=2)
        ref = moment_usp(n, a)
        assert abs(est - ref) <= 5 * se


def test_sampler_mean_traces():
    # E[tr(U^j)] = -eta_j for j <= 2n+1, at 1e5 samples within 5 sigma
    for n in (2, 5):
        for j in (1, 2, 3):
            est, se = moment_mc(n, Partition({j: 1}), MCConfig(n, 100_000, 31), threads=2)
            ref = moment_usp(n, Partition({j: 1}))
            assert abs(est - ref) <= 5 * se


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(2, 0, 1)
    # numpy's SeedSequence dies on a negative seed; a float seed is a typo
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="rng_seed"):
            MCConfig(2, 10, seed)


def test_mc_config_rejects_a_fractional_sample_count():
    with pytest.raises(ValueError, match="sample_count = 2.5 is not an integer"):
        MCConfig(1, 2.5, 0)


def test_moment_mc_rejects_a_negative_n():
    # the empty product too: n is checked before its early return
    cfg = MCConfig(1, 10, 0)
    for a in (Partition({1: 2}), Partition()):
        with pytest.raises(PreconditionViolated, match="n = -1 is negative"):
            moment_mc(-1, a, cfg)
    with pytest.raises(PreconditionViolated, match="n = -1 is negative"):
        run_mc(-1, cfg, _offset_stat, ((1,), 0.0), 1)


def test_moment_mc_rejects_a_fractional_n():
    cfg = MCConfig(1, 10, 0)
    for a in (Partition({1: 2}), Partition()):
        with pytest.raises(PreconditionViolated, match="n = 1.5 is not an integer"):
            moment_mc(1.5, a, cfg)


@pytest.mark.parametrize(
    "n,text",
    [
        (True, "n = True is not an integer"),
        (2.0, "n = 2.0 is not an integer"),
        (1.5, "n = 1.5 is not an integer"),
        (-1, "n = -1 is negative"),
    ],
)
def test_mc_config_checks_n(n, text):
    # the config refuses its own n: True would run as n = 1, and 2.0 would
    # pass run_mc's cfg.n == n test and die in the sampler
    with pytest.raises(PreconditionViolated) as refused:
        moment_mc(int(n), Partition({1: 2}), MCConfig(n, 100, 1))
    assert str(refused.value) == text


def test_stream_and_engine_share_samples():
    # moment_mc must be the plain sample mean over the angles of its own
    # draws, for traces within the bandwidth of J at n = 2 and beyond it
    cfg = MCConfig(2, 3_000, 77)
    for parts in ({1: 2}, {2: 1, 4: 1}, {3: 1, 5: 1}):
        a = Partition(parts)
        manual = [math.prod(trace_power(theta, j) ** m for j, m in a.items) for theta in angle_stream(cfg)]
        est, _ = moment_mc(2, a, cfg)
        assert est == pytest.approx(sum(manual) / len(manual), rel=1e-12), parts


def _cosine_traces(theta, indices):
    """sum_k 2 cos(2 pi j theta_k) per sample for each j in `indices`."""
    return np.stack([(2.0 * np.cos(2.0 * math.pi * j * theta)).sum(axis=1) for j in indices], axis=1)


def test_band_route_equals_eigensolve():
    # tr C_j(J) by the banded Chebyshev recursion against sum_k 2 cos(2 pi j
    # theta_k) after the eigensolve, on the same Jacobi matrices, for every
    # j <= 4n+1: within the bandwidth of J and past it
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 3, 5, 10, 30):
        diag, off = _jacobi_batch(n, 64, rng)
        indices = tuple(range(4 * n + 2))
        band = _band_traces(diag, off, indices)
        assert band.shape == (64, 4 * n + 2)
        tolerance = 1e-10 * np.maximum(np.arange(4 * n + 2), 1)
        assert (np.abs(band - _cosine_traces(jacobi_angles(diag, off), indices)) <= tolerance).all(), n
        # a sparse request computes the same columns
        sparse = indices[1::3]
        assert np.array_equal(_band_traces(diag, off, sparse), band[:, list(sparse)]), n


def test_band_route_in_chunks(monkeypatch):
    # a batch whose bands pass the byte cap runs in chunks, to the same columns
    diag, off = _jacobi_batch(10, 100, np.random.default_rng(13))
    whole = _band_traces(diag, off, (1, 4, 9, 20))
    monkeypatch.setattr(haar, "_CHUNK_BYTES", 8 * 11 * 10 * 30)  # 30 samples per chunk: 9 + 2 diagonals, n = 10
    assert np.array_equal(_band_traces(diag, off, (1, 4, 9, 20)), whole)


CHUNK_BYTES = haar._CHUNK_BYTES
SMALL_BATCHES, LARGE_BATCHES = (1, 2, 3, 7, 257), (1808, 4096)


def _index_sets(n):
    """Every j <= 4n+1; each of 1, n, 2n and 4n+1 alone; and a sparse set."""
    top = 4 * n + 1
    return [tuple(range(top + 1)), (1,), (n,), (2 * n,), (top,), tuple(sorted({0, 2, n + 1, 2 * n + 3}))]


def _assert_band_route_equals_whole_batch(monkeypatch, sizes, chunkings):
    # byte caps on one band array; None keeps the library's own
    rng = np.random.default_rng(14)
    for n, batches in sizes:
        diag, off = _jacobi_batch(n, max(batches), rng)
        for batch, indices in itertools.product(batches, _index_sets(n)):
            expected = band_traces_whole_batch(diag[:batch], off[:batch], indices)
            for chunk_bytes in chunkings:
                monkeypatch.setattr(haar, "_CHUNK_BYTES", chunk_bytes or CHUNK_BYTES)
                got = _band_traces(diag[:batch], off[:batch], indices)
                assert np.array_equal(got, expected), (n, batch, indices, chunk_bytes)


def test_band_route_equals_the_whole_batch_pass(monkeypatch):
    # The chunked recursion on reused buffers gives the columns of the
    # whole-batch pass bit for bit, whatever the chunking.  64 KiB makes
    # 273-sample chunks at n = 5 and j <= 21, so that a split into full
    # chunks would leave one sample of 4096 = 15 * 273 + 1 on its own, where
    # einsum sums in another order; 3000 bytes makes chunks of two or three
    # samples.  The slow test below takes n = 45, and 1808 and 4096 samples
    # at n = 30 and 45.
    sizes = [(n, SMALL_BATCHES) for n in (0, 1, 2, 3, 5, 10, 30)]
    _assert_band_route_equals_whole_batch(monkeypatch, sizes, (None, 64 << 10, 3000))
    sizes = [(n, LARGE_BATCHES) for n in (0, 1, 2, 3, 5, 10)]
    _assert_band_route_equals_whole_batch(monkeypatch, sizes, (None, 64 << 10))


@pytest.mark.slow
def test_band_route_equals_the_whole_batch_pass_at_large_n(monkeypatch):
    _assert_band_route_equals_whole_batch(monkeypatch, [(45, SMALL_BATCHES)], (None, 64 << 10, 3000))
    _assert_band_route_equals_whole_batch(monkeypatch, [(30, LARGE_BATCHES), (45, LARGE_BATCHES)], (None,))


def test_statistic_moments_mc_is_pinned():
    # the mc benchmark's n = 30 statistic op, as the whole-batch recursion
    # gave it: every bit of both columns
    f = FourierTestFn.parse("0:1")
    pinned = {
        1: "[(31.842980621319832, 2.1780636838839333), (3438.1396958983705, 688.2454004160586)]",
        2024: "[(32.123902043533946, 2.062668598660593), (3206.0465756796966, 563.4182373115881)]",
    }
    for seed, expected in pinned.items():
        assert repr(statistic_moments_mc(30, 30, (2, 4), f, MCConfig(30, 512, seed))) == expected, seed


@pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2", None])
def test_threads_must_be_an_integer_of_at_least_one(threads):
    # each of these used to run as if valid (0, -3, True) or die in a bare TypeError
    f, text = FourierTestFn.parse("0:1"), "threads = .* (is not an integer|is below 1)"
    calls = [
        lambda: run_mc(1, MCConfig(1, 10, 0), _offset_stat, ((1,), 0.0), 1, threads),
        lambda: moment_mc(1, Partition({1: 2}), MCConfig(1, 10, 0), threads),
        lambda: moment_mc(1, Partition(), MCConfig(1, 10, 0), threads),
        lambda: statistic_moments_mc(1, 1, (2,), f, MCConfig(1, 10, 0), threads),
        lambda: statistic_moments_mc(1, 1, (), f, MCConfig(1, 10, 0), threads),
        lambda: linstat.statistic_moment_mc(1, 1, 2, f, MCConfig(1, 10, 0), threads),
    ]
    for call in calls:
        with pytest.raises(PreconditionViolated, match=text):
            call()


# The angles (first, last, fsum) of the Monte Carlo draws, for n = 30 in one
# block and the rest across a block boundary: they pin the Beta draws and the
# seed blocks of every run.  The eigvalsh bits vary with the LAPACK build, so
# the values are compared within a tolerance.
PINNED_ANGLES = {
    (1, 5): (0.28091619788439987, 0.1890657168186699, 1249.5838824312964),
    (1, 2024): (0.3054198473230359, 0.301397362044558, 1248.8711693449698),
    (3, 5): (0.07144994015389433, 0.3550706127326581, 3751.5228235847712),
    (3, 2024): (0.1108364073461793, 0.4064470834471949, 3744.7434397595653),
    (7, 5): (0.039672022235378475, 0.46352570787824826, 8743.985810075766),
    (7, 2024): (0.058688989020140754, 0.4894778810162426, 8747.955605402574),
    (30, 5): (0.018119959797933977, 0.49440547794482176, 2247.608548398665),
    (30, 2024): (0.0062127089998006094, 0.4857647533482814, 2248.9028469559444),
}


def test_sampler_stream_is_pinned():
    for n, seed in [(0, 5), (0, 2024), *PINNED_ANGLES]:
        count = 300 if n == 30 else 5_000
        cfg = MCConfig(n, count, seed)
        theta = np.array(list(angle_stream(cfg)), dtype=float).reshape(count, n)
        if n:
            first, last, total = PINNED_ANGLES[n, seed]
            assert theta[0, 0] == pytest.approx(first, abs=1e-12), (n, seed)
            assert theta[-1, -1] == pytest.approx(last, abs=1e-12), (n, seed)
            assert math.fsum(theta.ravel()) == pytest.approx(total, rel=1e-12), (n, seed)


def _offset_stat(traces, offset):
    return offset + traces[:, 0]  # the column of the first trace index


def test_run_mc_variance_survives_large_offset():
    # ~1e8 + O(1) noise: sum(x^2) - N mean^2 loses every digit of the variance
    cfg = MCConfig(2, 3 * 4096 + 5, 41)
    [(mean, stderr)] = run_mc(2, cfg, _offset_stat, ((1,), 1e8), 1)
    values = np.array([1e8 + trace_power(theta, 1) for theta in angle_stream(cfg)])
    assert mean == pytest.approx(values.mean(), rel=1e-12)
    assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(len(values)), rel=1e-6)


def test_run_mc_rejects_malformed_trace_indices():
    # the trace columns are laid out in the order of stat_args[0]
    for indices in ((2, 1), (1, 1), (-1, 2)):
        with pytest.raises(PreconditionViolated, match="not sorted, distinct and non-negative"):
            run_mc(1, MCConfig(1, 10, 0), _offset_stat, (indices, 0.0), 1)
    with pytest.raises(PreconditionViolated, match="trace indices"):
        run_mc(1, MCConfig(1, 10, 0), _offset_stat, (), 1)


def test_run_mc_refuses_a_column_count_other_than_n_stats():
    # one column read as two used to die in a bare IndexError, and read as
    # none it drew every sample and returned []
    drawn = []

    def recorded(traces, offset):
        drawn.append(len(traces))
        return _offset_stat(traces, offset)

    cfg = MCConfig(1, 3 * haar.MC_BLOCK_SIZE, 0)
    for n_stats in (0, 2):
        with pytest.raises(PreconditionViolated, match=rf"gives 1 column\(s\), not n_stats = {n_stats}"):
            run_mc(1, cfg, recorded, ((1,), 0.0), n_stats)
    assert drawn == [haar.MC_BLOCK_SIZE] * 2  # each refusal comes after the first block


@pytest.mark.parametrize("threads", [1, 2])
def test_run_mc_reduces_in_the_reference_order(monkeypatch, threads):
    # The last bits of every estimate depend on the order of summation, and
    # no statistical test sees them: a merge grouped as (m2 + m2s) + cross
    # passes every other test.  The reference reduces one column at a time,
    # so column sums taken down axis 0 of the (count, n_stats) array fail
    # here too.
    cases = [
        lambda: moment_mc(2, Partition({1: 2}), MCConfig(2, 9000, 0), threads),
        lambda: moment_mc(3, Partition({1: 1, 2: 2}), MCConfig(3, 3 * haar.MC_BLOCK_SIZE + 1, 7), threads),
        lambda: statistic_moments_mc(2, 1, (1, 2, 3, 4, 5), FourierTestFn.parse("0:1"), MCConfig(2, 10_000, 0), threads),
        lambda: statistic_moments_mc(4, 3, (2, 4), FourierTestFn.parse("0:1 1:1/2 2:1/3"), MCConfig(4, 5000, 3), threads),
    ]
    got = [repr(case()) for case in cases]
    assert got[0] == "(0.9500167445168117, 0.014176147129602608)"

    def by_columns(n, cfg, stat_fn, stat_args, n_stats, threads):
        return run_mc_by_columns(n, cfg, stat_fn, stat_args, n_stats)

    monkeypatch.setattr(haar, "run_mc", by_columns)
    monkeypatch.setattr(linstat, "run_mc", by_columns)
    assert got == [repr(case()) for case in cases]


def _gram_schmidt_angles(n, count, rng):
    """Eigenangles of quaternionic Gram-Schmidt samples: the Hermitian part of
    a USp(2n) matrix has spectrum {cos 2 pi theta_k}, each value doubled."""
    q = _haar_matrix_batch(n, count, rng)
    cosines = np.linalg.eigvalsh(0.5 * (q + q.conj().transpose(0, 2, 1)))[:, ::2]
    return np.arccos(np.clip(cosines, -1.0, 1.0)) / (2.0 * math.pi)


def test_tridiagonal_sampler_matches_gram_schmidt():
    # the only sampler that builds group elements cross-checks the Jacobi model
    samples = 40_000
    for n in (1, 2, 3):
        theta = _gram_schmidt_angles(n, samples, np.random.default_rng(100 + n))
        traces = {j: (2.0 * np.cos(2.0 * math.pi * j * theta)).sum(axis=1) for j in (1, 2, 3)}
        for parts in ({1: 2}, {2: 1}, {1: 4}, {1: 2, 2: 1}, {3: 2}):
            a = Partition(parts)
            values = np.prod([traces[j] ** m for j, m in a.items], axis=0)
            gs_mean, gs_se = values.mean(), values.std(ddof=1) / math.sqrt(samples)
            est, se = moment_mc(n, a, MCConfig(n, samples, 200 + n))
            assert abs(est - gs_mean) <= 5 * math.hypot(se, gs_se), (n, parts, est, gs_mean)


def _cdf_on_grid(density, grid):
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return cumulative / cumulative[-1]


def test_angle_cdf_matches_weyl_density():
    # Kolmogorov-Smirnov distance of each ordered angle's empirical CDF from
    # the CDF integrated (trapezoid rule) from weyl_weight_usp; 1.95/sqrt(N)
    # is the 0.1 % critical value for N i.i.d. draws
    samples = 20_000
    bound = 1.95 / math.sqrt(samples)
    grid = np.linspace(0.0, 0.5, 401)
    one = np.array([weyl_weight_usp((t,)) for t in grid])
    ordered = np.zeros((grid.size, grid.size))  # density of (theta_1 < theta_2)
    for i, t in enumerate(grid):
        for k in range(i + 1, grid.size):
            ordered[i, k] = weyl_weight_usp((t, grid[k]))
    marginals = {1: [one], 2: [np.trapezoid(ordered, grid, axis=1), np.trapezoid(ordered, grid, axis=0)]}
    for n, densities in marginals.items():
        theta = np.array(list(angle_stream(MCConfig(n, samples, 300 + n))))
        for k, density in enumerate(densities):
            drawn = np.sort(theta[:, k])
            cdf = np.interp(drawn, grid, _cdf_on_grid(density, grid))
            steps = np.arange(1, samples + 1) / samples
            distance = max((steps - cdf).max(), (cdf - (steps - 1 / samples)).max())
            assert distance <= bound, (n, k, distance)


def _squared_moments_by_quadrature(n, parts, count):
    """E[X^2] for X = prod_j tr(U^j)^{a_j}, every partition in `parts`, by the
    Gauss rule of ``moment_quadrature`` over its increasing node tuples, with
    `count` nodes per angle, in float64 (n = 5 is past the quadrature's own
    n <= 4 guard)."""
    tuples, angle, weight = haar._quadrature_grid(n, count)
    angle, weight = angle.astype(float), weight.astype(float)
    powers = _TracePowers(lambda j: (2 * np.cos(j * angle[tuples])).sum(axis=1))
    out = []
    for a in parts:
        square = weight.copy()
        for j, m in a.items:
            square *= powers(j, 2 * m)
        out.append(float(square.sum()))
    return out


class _TracePowers:
    """tr(U^j)^m per sample, each power computed once."""

    def __init__(self, trace):
        self._trace = trace
        self._cache = {}

    def __call__(self, j, m):
        if (j, m) not in self._cache:
            self._cache[j, m] = self._trace(j) if m == 1 else self(j, 1) ** m
        return self._cache[j, m]


def _monomial_stat(traces, items_list):
    """One column per items tuple; its (c, m) pairs name trace columns c."""
    powers = _TracePowers(lambda c: traces[:, c])
    columns = np.empty((len(items_list), traces.shape[0]))
    for c, items in enumerate(items_list):
        column = columns[c]
        column[:] = 1.0
        for j, m in items:
            column *= powers(j, m)
    return columns.T


@pytest.mark.slow
def test_sampler_matches_every_moment_in_range():
    # every partition of size <= 4n+1, n <= 5, on one 10^6-sample stream per n,
    # within 5 exact standard errors sqrt((E[X^2] - E[X]^2)/N) of moment_usp.
    # E[X^2] comes from Gauss quadrature: the sample standard error misses the
    # rare large values of high powers (tr(U)^20 at n = 5 reads -11 sample
    # standard errors off at 2*10^5 samples)
    samples = 1_000_000
    for n in range(1, 6):
        parts = [a for a in partitions_of_size_at_most(4 * n + 1) if a]
        squares = _squared_moments_by_quadrature(n, parts, 5 * n + 1)
        cfg = MCConfig(n, samples, 400 + n)
        for start in range(0, len(parts), 512):
            group = parts[start : start + 512]
            indices = tuple(sorted({j for a in group for j in a.support}))
            items_list = tuple(tuple((indices.index(j), m) for j, m in a.items) for a in group)
            estimates = run_mc(n, cfg, _monomial_stat, (indices, items_list), len(group), threads=2)
            for a, square, (est, _) in zip(group, squares[start : start + 512], estimates):
                exact = moment_usp(n, a)
                stderr = math.sqrt(max(square - exact * exact, 0.0) / samples)
                assert abs(est - exact) <= 5 * stderr, (n, a.format(), est, exact, stderr)
