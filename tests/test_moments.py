import hashlib
import itertools
from bisect import bisect_right
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symp import moments
from symp.errors import OutOfRange, PreconditionViolated
from symp.haar import moment_quadrature
from symp.moments import (
    double_factorial,
    enumerate_pairings,
    even_indicator,
    gaussian_moment,
    gaussian_moment_single,
    moment_so_gaussian,
    moment_u_gaussian,
    moment_usp,
    moment_usp_gaussian,
    moment_usp_sum,
    nongaussian_correction,
    pairing_weight_sum,
)
from symp.partitions import Partition, partitions_of_size_at_most, sub_partitions

small_parts = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945


def test_even_indicator():
    assert even_indicator(1) == 0
    assert even_indicator(2) == 1
    assert even_indicator(7) == 0


def test_gaussian_moment_single():
    assert gaussian_moment_single(1, 1) == 0  # odd j, odd a
    assert gaussian_moment_single(5, 0) == 1
    assert gaussian_moment_single(1, 4) == 3  # 1^2 * 3!!
    assert gaussian_moment_single(2, 2) == 3  # 1 + C(2,2)*2*1
    assert gaussian_moment_single(2, 1) == 1
    assert gaussian_moment_single(2, 4) == 25
    assert gaussian_moment_single(3, 2) == 3


def test_gaussian_moment():
    assert gaussian_moment(Partition()) == 1
    assert gaussian_moment(Partition({1: 2})) == 1
    assert gaussian_moment(Partition({1: 2, 2: 1})) == 1
    assert gaussian_moment(Partition({1: 1, 2: 5})) == 0


def test_nongaussian_correction_cases():
    assert nongaussian_correction(3, Partition()) == 1
    assert nongaussian_correction(2, Partition({1: 3})) == 0  # odd size
    assert nongaussian_correction(1, Partition({1: 4})) == -1
    assert nongaussian_correction(2, Partition({6: 2})) == -1
    # boundary behaviour in n
    assert nongaussian_correction(2, Partition({1: 4})) == 0  # size/2 - n - 1 < 0
    assert nongaussian_correction(1, Partition({1: 6})) == 5  # -(1 - C(6,1))


@given(st.integers(1, 4), small_parts)
def test_nongaussian_correction_boundary(n, d):
    c = Partition(d)
    if c.size % 2 == 0 and 0 < c.size <= 2 * n + 2:
        expected = -1 if c.size == 2 * n + 2 else 0
        assert nongaussian_correction(n, c) == expected


def moment_usp_by_definition(n, a):
    """Oracle: the defining sum (-1)^len(a) sum_{b <= a} C(a,b) g(b) phi(n, a-b),
    enumerated over every sub-partition."""
    total = 0
    for b in sub_partitions(a):
        gb = gaussian_moment(b)
        if gb:
            total += a.binomial(b) * gb * nongaussian_correction(n, a - b)
    return (-1) ** a.length * total


def test_moment_usp_matches_definition():
    for n in range(1, 6):
        for a in partitions_of_size_at_most(4 * n + 1):
            assert moment_usp(n, a) == moment_usp_by_definition(n, a), (n, a)


def test_moment_usp_matches_definition_large():
    a = Partition({1: 30, 2: 15, 3: 10})
    assert moment_usp(30, a) == moment_usp_by_definition(30, a) == -944448840512881392775269194555


# sha256 of repr([(n, a.format(), moment_usp(n, a))]) over every partition of
# size <= 4n+1, n = 1..6, recorded from the three-pass programme that the
# transfer tables replaced
SWEEP_DIGEST = "f255078be5a34e573b6ae98d6eddcc5b1cbed255db721cbc6a8fde611f3056bc"


def test_moment_usp_sweep_digest():
    rows = [(n, a.format(), moment_usp(n, a)) for n in range(1, 7) for a in partitions_of_size_at_most(4 * n + 1)]
    assert len(rows) == 14503
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SWEEP_DIGEST


def _compositions(m, parts):
    """Every (k_0, k_1, ..., k_parts) of non-negative ints summing to m."""
    if parts == 0:
        yield (m,)
        return
    for k in range(m + 1):
        for rest in _compositions(m - k, parts - 1):
            yield rest + (k,)


FREE_BLOCKS = [
    ([(1, 1)], 0),
    ([(1, -1)], 7),
    ([(1, 2), (2, -3)], -5),
    ([(3, 2), (1, 1), (2, 5)], 0),
    ([(2, -1), (3, 4)], 3),
]


@pytest.mark.parametrize("blocks,zero_weight", FREE_BLOCKS)
def test_free_mode_is_the_multinomial_sum_of_fixed_moments(blocks, zero_weight):
    """Free counts sum m!/(k_0! prod k_j!) z^k_0 prod w_j^k_j moment_usp(n, k)."""
    widest = max(j for j, _ in blocks)
    checked = 0
    for n in range(0, 5):
        for m in range(0, 7):
            if m * widest > 4 * n + 1:
                continue
            expected = 0
            for ks in _compositions(m, len(blocks)):
                term = factorial(m) * zero_weight ** ks[0] // factorial(ks[0])
                for (j, w), k in zip(blocks, ks[1:]):
                    term = term * w**k // factorial(k)
                a = Partition({j: k for (j, _), k in zip(blocks, ks[1:]) if k})
                expected += term * moment_usp(n, a)
            assert moment_usp_sum(n, m, blocks, zero_weight) == expected, (n, m)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "m,blocks,fault",
    [
        pytest.param(
            2,
            [(1, 1), (1, 1)],
            "part size 1 appears in more than one block",
            id="2-blocks2-part size 1 appears in more than one block",
        ),
        pytest.param(2, [(0, 1)], "part size 0 is below 1", id="2-blocks3-part size 0 is below 1"),
        # a float part size equal to an int would also share its cache entry
        pytest.param(2, [(2.0, 1)], "part size = 2.0 is not an integer", id="2-blocks5-part size = 2.0 is not an integer"),
    ],
)
def test_moment_usp_sum_rejects_malformed_blocks(m, blocks, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        moment_usp_sum(2, m, blocks)


@pytest.mark.parametrize(
    "blocks,zero_weight,fault",
    [
        ([(1, 1.5)], 0, "block weight = 1.5 is not an integer"),
        ([(2, 1), (1, "3")], 0, "block weight = '3' is not an integer"),
        ([(1, 1)], 0.5, "zero_weight = 0.5 is not an integer"),
    ],
)
def test_moment_usp_sum_rejects_non_integer_weights(blocks, zero_weight, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        moment_usp_sum(2, 2, blocks, zero_weight)


def _defining_sum_by_engine(n, a):
    """The fixed-count loop that moment_usp runs, with no range check."""
    return moments._fixed_sum(2 * n + 2, a.items[::-1], a.size)


PAST_4N_PLUS_1 = [
    (10, {1: 42}),
    (10, {1: 44}),
    (10, {2: 22}),
    (10, {1: 20, 2: 12}),
    (30, {1: 122}),
    (30, {1: 124}),
    (30, {2: 62}),
]


def test_moment_usp_sum_is_the_defining_sum_past_4n_plus_1():
    # the engine has no range of its own: at sizes 4n+2..4n+8, where no
    # formula is proved, it still equals the defining sum term by term
    checked = 0
    for n in range(1, 4):
        for a in partitions_of_size_at_most(4 * n + 8):
            if a.size > 4 * n + 1:
                assert _defining_sum_by_engine(n, a) == moment_usp_by_definition(n, a), (n, a)
                checked += 1
    assert checked == 3412
    for n, parts in PAST_4N_PLUS_1:
        a = Partition(parts)
        assert _defining_sum_by_engine(n, a) == moment_usp_by_definition(n, a), (n, a)
    # free counts: the multinomial sum of the definition over 1^k1 2^k2, k1 + k2 = 3
    expected = sum(
        factorial(3) // (factorial(k) * factorial(3 - k)) * moment_usp_by_definition(1, Partition({1: k, 2: 3 - k}))
        for k in range(4)
    )
    assert moment_usp_sum(1, 3, [(1, 1), (2, 1)]) == expected


def test_dp_prune_is_tight(monkeypatch):
    # every state handed to the closing block can still reach phi's nonzero
    # set: a looser slack test keeps states that the close then drops, which
    # changes no value and shows only as lost speed
    close = moments._close
    seen = []

    def checked(need, j, w, groups):
        groups = [(k, f, list(states)) for k, f, states in groups]
        for k, _, states in groups:
            for (sc, sd), _ in states:
                assert sc == 0 or need + 2 * sd - sc <= j * k, (need, j, k, sc, sd)
                seen.append(sc > 0)
        return close(need, j, w, groups)

    monkeypatch.setattr(moments, "_close", checked)
    for n in range(1, 6):
        for a in partitions_of_size_at_most(4 * n + 1):
            _defining_sum_by_engine(n, a)  # odd sizes too, which moment_usp answers without the DP
    fixed = sum(seen)
    for n in range(0, 5):
        for m in range(0, 7):
            moment_usp_sum(n, m, [(1, 2), (2, -3)], -5)
            moment_usp_sum(n, m, [(3, 1), (1, 2), (2, -1)], 2)
    assert fixed > 0 and sum(seen) > fixed  # both loops closed states with nonempty c


def test_closing_step_is_the_filtered_transfer_table():
    # one state through the close against a brute filter of the transfer
    # table: the weights of the steps with slack >= lim whose size c step has
    # the state's parity, the split b = k counting as the step (0, 0, 0)
    checked = 0
    for j in range(1, 6):
        for w in (1, -1, 2, -2, 3, -3):
            for k in range(0, 9):
                whole, entries, _ = moments._transfer_table(j, w, k)
                steps = [(0, 0, whole)] + [(slack, dc, coef) for slack, dc, _, coef in entries]
                for lim in range(-(j * k + 2), j * k + 3):
                    for parity in (0, 1):
                        brute = sum(coef for slack, dc, coef in steps if slack >= lim and dc % 2 == parity)
                        sc = 2 - parity  # nonempty c of that parity, sd = 0
                        closed = moments._close(lim + sc, j, w, [(k, 1, [((sc, 0), 1)])])
                        assert closed == -brute, (j, w, k, lim, parity)
                        checked += 1
                    if lim > 0:  # empty c: lim = need, and the split b = k keeps phi's weight 1
                        brute = sum(coef for slack, dc, coef in steps if slack >= lim and dc % 2 == 0)
                        assert moments._close(lim, j, w, [(k, 2, [((0, 0), 3)])]) == 6 * (whole - brute), (j, w, k, lim)
    assert checked == 2 * sum(2 * (j * k + 2) + 1 for j in range(1, 6) for k in range(9)) * 6


def test_transfer_table_views_describe_the_same_steps():
    # the pass view lists every step but b = k, largest slack first; the
    # close view adds the b = k step (slack 0, size c step 0) when its
    # weight is nonzero and keeps per-parity prefix sums of the weights.
    # The full sums alone say little: the weights of the steps with one
    # size c step c' >= 1 sum to 0 by the alternating-binomial identity, so
    # the prefix sums are checked at the end of every run of equal slacks
    for j in range(1, 6):
        for w in (1, -1, 2, -2, 3, -3):
            for k in range(0, 9):
                whole, entries, (rises, even, odd) = moments._transfer_table(j, w, k)
                slacks = [slack for slack, *_ in entries]
                assert slacks == sorted(slacks, reverse=True), (j, w, k)
                assert all(dc and coef for _, dc, _, coef in entries), (j, w, k)
                steps = [(slack, dc, coef) for slack, dc, _, coef in entries] + ([(0, 0, whole)] if whole else [])
                assert list(rises) == sorted(-slack for slack, _, _ in steps), (j, w, k)
                assert len(even) == len(odd) == len(rises) + 1 and even[0] == odd[0] == 0, (j, w, k)
                assert even[-1] == sum(coef for _, dc, coef in steps if dc % 2 == 0), (j, w, k)
                assert odd[-1] == sum(coef for _, dc, coef in steps if dc % 2 == 1), (j, w, k)
                for rise in set(rises):
                    end = bisect_right(rises, rise)
                    for sums, parity in ((even, 0), (odd, 1)):
                        brute = sum(coef for slack, dc, coef in steps if -slack <= rise and dc % 2 == parity)
                        assert sums[end] == brute, (j, w, k, rise, parity)


@pytest.mark.parametrize("zero_weight", [-2, 0, 3])
def test_moment_usp_sum_with_no_blocks_is_the_zero_weight_power(zero_weight):
    for n in range(0, 4):
        for m in range(0, 6):
            assert moment_usp_sum(n, m, [], zero_weight) == zero_weight**m, (n, m)


@pytest.mark.parametrize("j,w,zero_weight", [(1, 1, 0), (1, -2, 3), (2, 3, -1), (3, -1, 2)])
def test_single_block_free_sum_is_the_multinomial_of_the_definition(j, w, zero_weight):
    # one block is the closing block alone: no head pass runs
    for n in range(0, 4):
        for m in range(0, 7):
            expected = sum(
                comb(m, k) * zero_weight ** (m - k) * w**k * moment_usp_by_definition(n, Partition({j: k}))
                for k in range(m + 1)
            )
            assert moment_usp_sum(n, m, [(j, w)], zero_weight) == expected, (n, m)


@pytest.mark.parametrize("n,fault", [(1.5, "n = 1.5 is not an integer"), (-1, "n = -1 is negative")])
def test_moment_usp_rejects_bad_n(n, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        moment_usp(n, Partition({1: 2}))
    with pytest.raises(PreconditionViolated, match=fault):
        moment_usp(n, Partition())
    with pytest.raises(PreconditionViolated, match=fault):
        moment_usp_sum(n, 2, [(1, 1)])


@pytest.mark.parametrize("n,fault", [(1.5, "n = 1.5 is not an integer"), (-1, "n = -1 is negative")])
@pytest.mark.parametrize(
    "model",
    [
        lambda n: moment_usp_gaussian(n, Partition({1: 2})),
        lambda n: moment_so_gaussian(n, Partition({1: 2})),
        lambda n: moment_u_gaussian(n, Partition({1: 2}), Partition({1: 2})),
        lambda n: nongaussian_correction(n, Partition({1: 8})),
    ],
    ids=["usp_gaussian", "so_gaussian", "u_gaussian", "nongaussian_correction"],
)
def test_models_reject_bad_n(model, n, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        model(n)


def test_moment_usp_frozen_values():
    assert moment_usp(2, Partition()) == 1
    assert moment_usp(1, Partition({2: 1})) == -1
    assert moment_usp(1, Partition({1: 2})) == 1
    # by-hand expansion of the defining sum: 3*1 + (-1)*1 = 2
    assert moment_usp(1, Partition({1: 4})) == 2
    assert moment_usp(1, Partition({2: 2})) == 2
    # quadrature-verified value beyond the Gaussian range at n=2
    assert moment_usp(2, Partition({3: 2})) == 2
    assert moment_usp(30, Partition({30: 2})) == 31
    assert moment_usp(30, Partition({30: 4})) == 2876


def test_moment_usp_out_of_range():
    with pytest.raises(OutOfRange):
        moment_usp(1, Partition({3: 2}))
    with pytest.raises(OutOfRange):
        moment_usp(2, Partition({1: 10}))
    # odd sizes past 4n+1 too: the range check comes before the parity answer 0
    with pytest.raises(OutOfRange):
        moment_usp(1, Partition({1: 7}))
    with pytest.raises(OutOfRange):
        moment_usp(3, Partition({1: 2, 3: 4, 5: 1}))
    assert moment_usp(2, Partition({1: 9})) == 0  # boundary 4n+1 allowed


def test_moment_usp_gaussian_flags():
    assert moment_usp_gaussian(3, Partition({1: 2})) == (1, True)
    assert moment_usp_gaussian(3, Partition({1: 1})) == (0, True)
    assert moment_usp_gaussian(1, Partition({2: 2})) == (3, False)


def test_moment_so_gaussian():
    assert moment_so_gaussian(5, Partition({2: 1})) == (1, True)
    assert moment_so_gaussian(5, Partition({1: 1})) == (0, True)
    assert moment_so_gaussian(2, Partition({1: 2})) == (1, False)


def test_moment_u_gaussian():
    assert moment_u_gaussian(1, Partition({1: 1}), Partition({1: 1})) == (1, True)
    assert moment_u_gaussian(5, Partition({1: 1}), Partition()) == (0, True)
    assert moment_u_gaussian(4, Partition({2: 2}), Partition({2: 2})) == (8, True)
    assert moment_u_gaussian(3, Partition({2: 2}), Partition({2: 2})).valid is False


def test_range_reduction():
    # within size <= 2n+1 the full formula collapses to the Gaussian model
    for n in (1, 2, 3, 4):
        for a in partitions_of_size_at_most(2 * n + 1):
            assert moment_usp(n, a) == moment_usp_gaussian(n, a).value


def test_odd_size_vanishing():
    # moment_usp answers odd sizes by the parity of U -> -U without the DP;
    # the DP itself computes the same 0 term by term, past 4n+1 as well
    checked = 0
    for n in range(1, 7):
        top = 4 * n + 8 if n <= 3 else 4 * n + 1
        for a in partitions_of_size_at_most(top):
            if a.size % 2 == 1:
                assert _defining_sum_by_engine(n, a) == 0, (n, a)
                checked += 1
                if a.size <= 4 * n + 1:
                    value = moment_usp(n, a)
                    assert type(value) is int and value == 0, (n, a)
                    if n <= 3:
                        assert abs(moment_quadrature(n, a)) <= 1e-9, (n, a)
    assert checked == 9_512


# --- pairings -------------------------------------------------------------


def brute_pairings(b: Partition):
    """Oracle: involutions on the labelled parts, preserving part size, with
    no fixed point at odd sizes; enumerated over raw permutations."""
    labels = [(j, i) for j, m in b.items for i in range(1, m + 1)]
    found = []
    for perm in itertools.permutations(range(len(labels))):
        ok = True
        for idx, image in enumerate(perm):
            if perm[image] != idx:  # must be an involution
                ok = False
                break
            if labels[idx][0] != labels[image][0]:  # preserves part size
                ok = False
                break
            if image == idx and labels[idx][0] % 2 == 1:  # no odd fixed point
                ok = False
                break
        if ok:
            found.append(perm)
    return found


@pytest.mark.parametrize(
    "parts,count",
    [({1: 1}, 0), ({1: 2}, 1), ({2: 2}, 2), ({1: 4}, 3), ({2: 3}, 4), ({3: 2}, 1), ({1: 2, 2: 1}, 1)],
)
def test_enumerate_pairings_counts(parts, count):
    b = Partition(parts)
    got = list(enumerate_pairings(b))
    assert len(got) == count == len(brute_pairings(b))


def test_pairing_against_brute_weights():
    for parts in [{1: 2}, {2: 2}, {1: 4}, {2: 3}, {1: 2, 2: 2}, {3: 2, 2: 1}]:
        b = Partition(parts)
        labels = [(j, i) for j, m in b.items for i in range(1, m + 1)]
        brute_total = 0
        for perm in brute_pairings(b):
            pairs_at = {}
            for idx, image in enumerate(perm):
                if image > idx:
                    pairs_at[labels[idx][0]] = pairs_at.get(labels[idx][0], 0) + 1
            weight = 1
            for j, cnt in pairs_at.items():
                weight *= j**cnt
            brute_total += weight
        assert pairing_weight_sum(b) == brute_total


def test_pairing_weight_examples():
    assert pairing_weight_sum(Partition({1: 2})) == 1
    assert pairing_weight_sum(Partition({2: 2})) == 3
    assert pairing_weight_sum(Partition({3: 1})) == 0


@settings(max_examples=40)
@given(small_parts)
def test_pairing_identity(d):
    b = Partition(d)
    if b.size <= 10:
        assert pairing_weight_sum(b) == gaussian_moment(b)


def test_pairing_structure_fields():
    (pairing,) = list(enumerate_pairings(Partition({1: 2})))
    assert pairing.base == Partition({1: 2})
    assert pairing.pairs == ((1, ((1, 2),)),)  # one pair of the two 1-parts
    assert pairing.weight() == 1
