"""The benchmark's tracer (bench/tracer.py) patches symp functions by name and
calls them with fixed signatures.  This test installs it, calls every traced
function once through symp's public entry points and removes it again, so a
renamed, removed or re-signatured traced function fails the test suite, not
only a traced benchmark run."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from run import load_symp  # noqa: E402
from tracer import Tracer  # noqa: E402

SPANS = {
    "moments.moment_usp",
    "haar.quadrature",
    "haar.mc",
    "linstat.exact",
    "linstat.mc",
    "ffield.primes",
    "ffield.family",
    "ffield.symbols",
    "ffield.lpoly",
    "ffield.charsum",
    "ffield.empirical",
    "ffield.tuple",
}
COUNTERS = {
    "partitions.sub_partitions.yielded",
    "moments.nongaussian_correction.calls",
    "haar.mc.samples",
    "ffield.primes.count",
    "ffield.family.curves",
    "ffield.is_irreducible.calls",
    "ffield.is_squarefree.calls",
    "ffield.char_table.calls",
    "ffield.char_table.builds",
    "ffield.symbols.distinct_primes",
}


def exercise(sym):
    Partition, ff, haar = sym.partitions.Partition, sym.ffield, sym.haar
    a = Partition({1: 2})
    list(sym.partitions.sub_partitions(a))
    sym.moments.moment_usp(1, a)
    sym.moments.nongaussian_correction(1, Partition({4: 1}))
    haar.moment_quadrature(1, a)
    haar.moment_mc(1, a, haar.MCConfig(1, 64, 0))
    f = sym.linstat.FourierTestFn.parse("0:1 1:1/2")
    sym.linstat.statistic_moment_exact(2, 1, 2, f)
    sym.linstat.statistic_moments_mc(2, 1, (1, 2), f, haar.MCConfig(2, 64, 0))

    field = ff.PrimeField(5)
    ff.empirical_moment(field, 1, Partition({2: 2}))
    ff.l_polynomials_batch(field, 1, ff.hyperelliptic_rows(field, 1))
    ff.char_sum_distinct_primes(field, 1, a)
    ff.char_sum_distinct_primes_weighted(field, 1, a)
    ff.square_contribution(field, a)
    ff.is_irreducible(field, (1, 1))
    ff.is_squarefree(field, (0, 1))
    prime = ff.primes_of_degree(field, 2)[0]
    ff.char_table(field, prime)
    ff.symbols_batch(field, ff.hyperelliptic_rows(field, 1), prime)


def test_tracer_installs_counts_and_removes():
    sym = load_symp()
    tracer = Tracer(sym)
    plan = [(home, attr) for home, attr, _ in tracer._plan()]
    originals = [getattr(home, attr) for home, attr in plan]
    tracer.install()
    try:
        assert all(getattr(home, attr) is not fn for (home, attr), fn in zip(plan, originals))
        exercise(sym)
    finally:
        tracer.remove()
    assert all(getattr(home, attr) is fn for (home, attr), fn in zip(plan, originals))
    assert tracer.problems == []
    assert {name for name, st in tracer.stats.items() if st.calls} >= SPANS
    assert {key for key, count in tracer.counts.items() if count} >= COUNTERS
