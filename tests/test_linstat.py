import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import angle_stream, l2_norm, linear_statistic, moment_main_term
from symp.errors import OutOfRange, ParseError, PreconditionViolated
from symp.haar import MCConfig, moment_quadrature
from symp.linstat import (
    FourierTestFn,
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


def test_from_dict_indices_must_be_integers():
    with pytest.raises(PreconditionViolated, match="Fourier index = 1.5 is not an integer"):
        FourierTestFn.from_dict({1.5: 1})
    assert FourierTestFn.from_dict({np.int64(1): 2, 0: 0}).coefficients == ((1, 2),)


def test_l2_norm():
    assert l2_norm(FourierTestFn.parse("")) == 0.0
    assert l2_norm(F0) == 1.0
    assert l2_norm(FourierTestFn.parse("1:0.5")) == pytest.approx(1 / math.sqrt(2))
    assert float(FH.norm_sq()) == pytest.approx(1.5)


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


@pytest.mark.parametrize(
    "call,fault",
    [
        (lambda: statistic_moment_exact(3, 1.5, 2, FH), "nu = 1.5 is not an integer"),
        (lambda: moment_main_term(4, 2.5, Partition({2: 2})), "nu = 2.5 is not an integer"),
        (lambda: moment_main_term(1.5, 1, Partition({1: 2})), "n = 1.5 is not an integer"),
        (lambda: moment_main_term(-1, 0, Partition()), "n = -1 is negative"),
        (lambda: statistic_moment_gaussian(4, 2.5, 2, FH), "nu = 2.5 is not an integer"),
        (lambda: statistic_moment_gaussian(4, 2, -2, FH), "m = -2 is negative"),
        (lambda: statistic_moment_mc(2, 1, -1, FH, MCConfig(2, 10, 1)), "m = -1 is negative"),
    ],
    ids=[
        "exact_fractional_nu",
        "main_term_fractional_nu",
        "main_term_fractional_n",
        "main_term_negative_n",
        "gaussian_fractional_nu",
        "gaussian_negative_m",
        "mc_negative_m",
    ],
)
def test_linstat_rejects_bad_arguments(call, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        call()


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


def test_mc_statistic_matches_its_definition():
    # W = sum_i F_i tr(U^i), from the folded weights and the trace columns,
    # against W = sum_k 2 f(theta_k) cos(2 pi nu theta_k) on the angles of the
    # same draws; nu = 0 puts tr(U^0) = 2n in W, nu = 1 folds -1 onto 1 and
    # nu = -2 folds every index
    f3 = FourierTestFn.parse("0:1 1:1/2 2:1/4")
    for n, nu, f in [(2, 0, FH), (3, 1, f3), (3, 5, FH), (1, -2, f3), (4, 3, FourierTestFn.parse("1:-1 3:2"))]:
        cfg = MCConfig(n, 3_000, 60 + n)
        w = np.array([linear_statistic(f, nu, theta) for theta in angle_stream(cfg)])
        for m, (est, _) in zip((1, 2, 3), statistic_moments_mc(n, nu, (1, 2, 3), f, cfg)):
            # W^1 and W^3 can average near 0: compare on the scale of |W|^m
            assert abs(est - (w**m).mean()) <= 1e-12 * (np.abs(w) ** m).mean(), (n, nu, m)


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
