import cmath
import itertools
import math
from fractions import Fraction

import pytest

from symp.errors import OutOfRange, ParseError, PreconditionViolated
from symp.haar import EigenAngles, MCConfig, moment_quadrature, sample_haar_usp, trace_power
from symp.linstat import (
    FourierTestFn,
    l2_norm,
    linear_statistic,
    moment_main_term,
    statistic_moment_exact,
    statistic_moment_gaussian,
    statistic_moment_mc,
    statistic_moments_mc,
)
from symp.moments import moment_usp
from symp.partitions import Partition

F0 = FourierTestFn.parse("0:1")
FH = FourierTestFn.parse("0:1 1:0.5")


def test_parse():
    assert FH.value(1) == Fraction(1, 2)
    assert FH.value(-1) == Fraction(1, 2)
    assert FH.value(3) == 0
    assert FourierTestFn.parse("").coefficients == ()
    with pytest.raises(ParseError):
        FourierTestFn.parse("1:0.5 1:0.25")
    with pytest.raises(ParseError):
        FourierTestFn.parse("a:b")


def test_l2_norm():
    assert l2_norm(FourierTestFn.parse("")) == 0.0
    assert l2_norm(F0) == 1.0
    assert l2_norm(FourierTestFn.parse("1:0.5")) == pytest.approx(1 / math.sqrt(2))
    assert float(FH.norm_sq()) == pytest.approx(1.5)


def test_linear_statistic_examples():
    e = EigenAngles((0.1, 0.3))
    assert linear_statistic(FourierTestFn.parse(""), 3, e) == 0.0
    # f == 1 collapses to a trace power
    assert linear_statistic(F0, 4, e) == pytest.approx(trace_power(e, 4))


def test_linear_statistic_real_via_complex_oracle():
    # direct complex sum over all 2n angles +-theta
    f = FH
    nu = 5
    for e in sample_haar_usp(MCConfig(3, 5, 17)):
        direct = sum(
            f.evaluate(s * t) * cmath.exp(2j * math.pi * nu * s * t)
            for t in e.theta
            for s in (1, -1)
        )
        assert abs(direct.imag) <= 1e-12
        assert linear_statistic(f, nu, e) == pytest.approx(direct.real, abs=1e-10)


def brute_moment_exact(n, nu, m, f):
    """Oracle: raw multi-index loop without multiplicity collection."""
    signed = sorted({j for j, _ in f.coefficients} | {-j for j, _ in f.coefficients})
    indices = [nu + s for s in signed]
    total = Fraction(0)
    for combo in itertools.product(indices, repeat=m):
        coeff = Fraction(1)
        for idx in combo:
            coeff *= Fraction(f.value(idx - nu))
        if coeff == 0:
            continue
        parts = {}
        zeros = 0
        for idx in combo:
            if idx == 0:
                zeros += 1
            else:
                parts[abs(idx)] = parts.get(abs(idx), 0) + 1
        total += coeff * (2 * n) ** zeros * moment_usp(n, Partition(parts))
    return total


def test_exact_moment_matches_brute():
    for n, nu, m, f in [(3, 3, 2, FH), (3, 3, 3, FH), (2, 4, 2, F0), (4, 4, 3, FH)]:
        assert statistic_moment_exact(n, nu, m, f) == brute_moment_exact(n, nu, m, f)


def test_exact_moment_fold_case():
    # nu inside the Fourier support exercises tr(U^0) = 2n and negative folding
    f = FourierTestFn.parse("0:1 1:0.5 2:0.25")
    for n, nu, m in [(3, 1, 2), (3, 2, 2), (4, 1, 3)]:
        assert statistic_moment_exact(n, nu, m, f) == brute_moment_exact(n, nu, m, f)


@pytest.mark.parametrize("text", ["0:1", "0:1 1:1/2", "0:1 1:1/2 2:1/4"])
def test_exact_moment_matches_brute_grid(text):
    # nu in 0..2 lies inside the Fourier support (tr(U^0) and folded indices)
    f = FourierTestFn.parse(text)
    for n in range(1, 6):
        for nu in (0, 1, 2, 3, 4, 5, -3):
            for m in range(6):
                if m * (abs(nu) + f.max_index) > 4 * n + 1:
                    with pytest.raises(OutOfRange):
                        statistic_moment_exact(n, nu, m, f)
                else:
                    assert statistic_moment_exact(n, nu, m, f) == brute_moment_exact(n, nu, m, f), (n, nu, m)


def test_exact_moment_symmetric_in_nu():
    for n, nu, m in [(3, 3, 2), (4, 2, 3), (20, 10, 4)]:
        assert statistic_moment_exact(n, -nu, m, FH) == statistic_moment_exact(n, nu, m, FH)
        assert statistic_moment_gaussian(n, -nu, m, FH) == statistic_moment_gaussian(n, nu, m, FH)
    assert statistic_moment_gaussian(20, -3, 2, F0) == 3.0


def test_exact_moment_large_order_frozen():
    # recorded from the enumeration over all C(19, 12) multisets
    f = FourierTestFn.parse("0:1 1:1/2 2:1/3 3:1/4")
    expected = Fraction(1004667947925527751368110923095, 2229025112064)
    assert statistic_moment_exact(400, 100, 12, f) == expected


def test_exact_moment_rejects_negative_order():
    with pytest.raises(PreconditionViolated):
        statistic_moment_exact(3, 3, -1, FH)


@pytest.mark.parametrize(
    "n,m,fault",
    [
        (1.5, 2, "n = 1.5 is not an integer"),
        (-5, 0, "n = -5 is negative"),
        (3, 2.0, "m = 2.0 is not an integer"),
    ],
)
def test_exact_moment_rejects_bad_n_and_m(n, m, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        statistic_moment_exact(n, 0, m, FH)


def test_exact_moment_orders_zero_and_empty_table():
    assert statistic_moment_exact(3, 3, 0, FH) == 1
    assert statistic_moment_exact(3, 3, 0, FourierTestFn.parse("")) == 1
    assert statistic_moment_exact(3, 3, 2, FourierTestFn.parse("")) == 0


def test_exact_moment_frozen_values():
    assert statistic_moment_exact(30, 30, 2, F0) == 31
    assert statistic_moment_exact(30, 30, 4, F0) == 2876
    assert statistic_moment_exact(1, 2, 2, F0) == 2
    assert statistic_moment_exact(3, 4, 2, F0) == 4
    assert statistic_moment_exact(20, 10, 2, FH) == 16
    assert statistic_moment_exact(20, 10, 3, FH) == -46
    assert statistic_moment_exact(20, 10, 4, FH) == Fraction(12227, 16)


def test_exact_moment_quadrature_cross_checks():
    # the expansion against the independent quadrature oracle, small n
    val = statistic_moment_exact(1, 2, 2, F0)
    assert moment_quadrature(1, Partition({2: 2})) == pytest.approx(float(val), abs=1e-9)
    val = statistic_moment_exact(2, 3, 2, F0)
    assert moment_quadrature(2, Partition({3: 2})) == pytest.approx(float(val), abs=1e-9)


def test_exact_moment_float_path():
    f = FourierTestFn.from_dict({0: 1.0, 1: 0.5})
    exact = statistic_moment_exact(20, 10, 2, FH)
    assert isinstance(statistic_moment_exact(20, 10, 2, f), float)
    assert statistic_moment_exact(20, 10, 2, f) == pytest.approx(float(exact))


def test_out_of_range_reports_multi_index():
    with pytest.raises(OutOfRange) as err:
        statistic_moment_exact(1, 3, 2, F0)
    assert "(3, 3)" in str(err.value)
    # the first offending multi-index in combinations_with_replacement order
    with pytest.raises(OutOfRange) as err:
        statistic_moment_exact(20, 10, 8, FH)
    assert str(err.value) == (
        "multi-index (9, 9, 9, 11, 11, 11, 11, 11) needs partition 9^3 11^5 of size 82 > 4n+1 = 81"
    )
    # boundary: m * (nu + J) = 4n+1 exactly is fine
    assert statistic_moment_exact(30, 30, 4, FourierTestFn.parse("0:1")) == 2876


def test_gaussian_prediction():
    assert statistic_moment_gaussian(10, 7, 3, FH) == 0.0
    assert statistic_moment_gaussian(10, 7, 2, FH) == pytest.approx(1.5 * 7)
    assert statistic_moment_gaussian(10, 7, 4, FH) == pytest.approx(3 * 1.5**2 * 49)
    assert statistic_moment_gaussian(30, 30, 2, F0) == pytest.approx(30.0)


def test_moment_main_term():
    assert moment_main_term(40, 40, Partition({40: 1, 41: 1})) == 0  # odd multiplicities
    assert moment_main_term(40, 40, Partition({40: 2})) == 40
    assert moment_main_term(40, 40, Partition({40: 4})) == 3 * 40**2
    with pytest.raises(PreconditionViolated):
        moment_main_term(40, 40, Partition({10: 2}))  # support too far from nu
    with pytest.raises(PreconditionViolated):
        moment_main_term(2, 3, Partition({3: 4}))  # size beyond 4n+1


def test_main_term_consistency_sweep():
    # |moment_usp - main term| <= 2 n^((len-1)/2) for near-nu partitions, nu = n
    for n in (20, 40, 80, 160):
        nu = n
        for parts in [{nu: 2}, {nu: 4}, {nu - 1: 1, nu + 1: 1}]:
            a = Partition(parts)
            gap = abs(moment_usp(n, a) - moment_main_term(n, nu, a))
            assert gap <= 2 * n ** ((a.length - 1) / 2)


def test_mc_against_exact():
    exact = statistic_moment_exact(5, 5, 2, F0)
    est, se = statistic_moment_mc(5, 5, 2, F0, MCConfig(5, 40_000, 2), threads=2)
    assert abs(est - float(exact)) <= 5 * se


def test_mc_engine_matches_single_calls():
    cfg = MCConfig(3, 5_000, 8)
    multi = statistic_moments_mc(3, 3, (1, 2), FH, cfg)
    single1 = statistic_moment_mc(3, 3, 1, FH, cfg)
    single2 = statistic_moment_mc(3, 3, 2, FH, cfg)
    assert multi[0] == single1
    assert multi[1] == single2


def test_mc_determinism():
    cfg = MCConfig(2, 10_000, 5)
    r1 = statistic_moment_mc(2, 2, 2, FH, cfg, threads=1)
    r2 = statistic_moment_mc(2, 2, 2, FH, cfg, threads=2)
    assert r1 == r2
    assert repr(statistic_moments_mc(2, 2, (2, 4), FH, cfg, threads=1)) == repr(
        statistic_moments_mc(2, 2, (2, 4), FH, cfg, threads=2)
    )
