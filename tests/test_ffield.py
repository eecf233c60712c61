import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chi,
    factorize,
    jacobi_symbol,
    legendre_symbol,
    monic_polys,
    poly_eval,
    prime_power_terms,
    rows_to_polys,
    squarefree_monics,
    von_mangoldt,
)
from symp import ffield
from symp.errors import BudgetExceeded, NotSquarefree, PreconditionViolated
from symp.ffield import (
    _check_float_exact,
    _chunk_symbols,
    _degree_symbols,
    _distinct_prime_sums,
    _even_words,
    _orbit_representatives,
    _prime_sums,
    LPolynomial,
    PrimeField,
    char_sum_distinct_primes,
    char_sum_distinct_primes_weighted,
    char_table,
    empirical_moment,
    frobenius_power_sums,
    hyperelliptic_rows,
    is_irreducible,
    is_squarefree,
    l_polynomial,
    l_polynomials_batch,
    monic_coeff_matrix,
    poly_divmod,
    poly_gcd,
    poly_mul,
    primes_of_degree,
    square_contribution,
    symbols_batch,
    weighted_char_sums,
)
from symp.moments import gaussian_moment, moment_usp
from symp.partitions import Partition

F3 = PrimeField(3)
F5 = PrimeField(5)


def random_poly(field, rng, degree):
    c = [int(rng.integers(field.q)) for _ in range(degree)] + [1]
    return tuple(c)


def brute_irreducible(field, f):
    """Oracle: trial division by every lower-degree monic polynomial."""
    d = len(f) - 1
    if d < 1:
        return False
    for e in range(1, d):
        for g in monic_polys(field, e):
            if not poly_divmod(field, f, g)[1]:
                return False
    return True


def mobius_prime_count(q, j):
    def mu(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    total = 0
    d = 1
    while d <= j:
        if j % d == 0:
            total += mu(d) * q ** (j // d)
        d += 1
    return total // j


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    for q in (7.0, "7"):
        with pytest.raises(ValueError, match="q must be an odd prime"):
            PrimeField(q)
    assert chi(PrimeField(7), 2) == 1  # 3^2 = 2 mod 7
    assert chi(PrimeField(7), 0) == 0


def test_poly_basics():
    f = (1, 2, 1)  # (x+1)^2 over F_3
    assert poly_mul(F3, (1, 1), (1, 1)) == f
    q, r = poly_divmod(F3, f, (1, 1))
    assert q == (1, 1) and r == ()
    assert poly_gcd(F3, f, (1, 1)) == (1, 1)
    assert poly_eval(F3, (0, 2, 0, 1), 2) == 0  # x^3 - x vanishes on F_3


@pytest.mark.parametrize("q,j,count", [(3, 1, 3), (3, 2, 3), (5, 2, 10), (3, 3, 8), (7, 2, 21)])
def test_primes_of_degree_counts(q, j, count):
    field = PrimeField(q)
    primes = primes_of_degree(field, j)
    assert len(primes) == count == mobius_prime_count(q, j)
    for p in primes[:10]:
        assert brute_irreducible(field, p)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_prime_sieve_matches_frobenius_test(q):
    # same list in the same (monic_polys) order as filtering by is_irreducible
    field = PrimeField(q)
    for d in range(1, 5):
        assert primes_of_degree(field, d) == [f for f in monic_polys(field, d) if is_irreducible(field, f)]


def test_prime_sieve_gauss_count():
    for q in (3, 5, 7, 11, 13):
        field = PrimeField(q)
        for d in range(1, 5):
            assert len(primes_of_degree(field, d)) == mobius_prime_count(q, d), (q, d)
    assert primes_of_degree(F3, 0) == []


def test_is_irreducible_matches_brute():
    for f in monic_polys(F3, 3):
        assert is_irreducible(F3, f) == brute_irreducible(F3, f)


def test_squarefree_monics_counts():
    # q^(2n+1) (1 - 1/q) squarefree monics of degree 2n+1
    assert len(squarefree_monics(F3, 3)) == 18
    assert len(squarefree_monics(F5, 3)) == 100
    for h in squarefree_monics(F3, 3):
        assert is_squarefree(F3, h)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_squarefree_sieve_matches_gcd_test(q):
    field = PrimeField(q)
    for d in range(6):
        rows = monic_coeff_matrix(field, d)
        mask = np.array([is_squarefree(field, tuple(row)) for row in rows.tolist()])
        assert squarefree_monics(field, d) == [f for f in monic_polys(field, d) if is_squarefree(field, f)]
        if d % 2:
            assert np.array_equal(hyperelliptic_rows(field, d // 2), rows[mask])
        assert mask.sum() == (q**d - q ** (d - 1) if d >= 2 else q**d)


def test_budget_guard():
    # the user's budget enters only at empirical_moment: the family degree 2n+1 first
    with pytest.raises(BudgetExceeded, match=r"^q\^3 = 125 exceeds budget 10$"):
        empirical_moment(PrimeField(5), 1, Partition({}), budget=10)
    # then every part size, whose prime tables and residue squares hold q^j codes
    with pytest.raises(BudgetExceeded, match=r"^q\^5 = 3125 exceeds budget 100$"):
        empirical_moment(PrimeField(5), 0, Partition({5: 1}), budget=100)
    # raised before anything of size q^degree is allocated: 5^40 would not fit
    with pytest.raises(BudgetExceeded):
        primes_of_degree(F5, 40)
    with pytest.raises(BudgetExceeded):
        squarefree_monics(F5, 40)
    with pytest.raises(BudgetExceeded):
        hyperelliptic_rows(F5, 20)
    # the L-polynomial tables would hold (1 + 5 + ... + 5^4) * 130 000 =
    # 101 530 000 int8 entries at q = 5, n = 2; refused before any table exists
    with pytest.raises(BudgetExceeded, match="101530000 entries"):
        l_polynomials_batch(F5, 2, np.zeros((130_000, 6), dtype=np.int64))


def test_budget_outcome_does_not_depend_on_cached_tables():
    # 125 curves fit in the budget, the degree-5 prime table does not, whether
    # or not the field has already built it
    field = PrimeField(5)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match=r"^q\^5 = 3125 exceeds budget 1000$"):
            empirical_moment(field, 1, Partition({5: 1}), budget=1000)
        primes_of_degree(field, 5)


def test_von_mangoldt():
    p3 = primes_of_degree(F3, 3)[0]
    assert von_mangoldt(F3, p3) == 3
    p2 = primes_of_degree(F5, 2)[0]
    assert von_mangoldt(F5, poly_mul(F5, p2, p2)) == 2
    p1a, p1b = primes_of_degree(F5, 1)[:2]
    assert von_mangoldt(F5, poly_mul(F5, p1a, p1b)) == 0
    assert von_mangoldt(F5, (1,)) == 0


def test_jacobi_examples():
    h = (0, 2, 0, 1)  # x^3 - x over F_3
    for c in range(3):
        assert jacobi_symbol(F3, h, ((-c) % 3, 1)) == 0
    assert jacobi_symbol(F3, (0, 1), (2, 1)) == 1  # (x / (x-1)): h(1)=1 square
    p = primes_of_degree(F3, 2)[0]
    assert jacobi_symbol(F3, p, p) == 0


@settings(max_examples=30)
@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(0, 8))
def test_jacobi_multiplicative(code1, code2, fidx):
    def decode(code):
        return tuple((code // 3**i) % 3 for i in range(4))

    h1, h2 = decode(code1), decode(code2)
    fs = [f for f in monic_polys(F3, 2)]
    f = fs[fidx % len(fs)]
    lhs = jacobi_symbol(F3, poly_mul(F3, h1, h2) if h1 and h2 else (), f)
    assert lhs == jacobi_symbol(F3, h1, f) * jacobi_symbol(F3, h2, f)


def test_jacobi_multiplicative_in_denominator():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_poly(F5, rng, 3)
        f1 = random_poly(F5, rng, 2)
        f2 = random_poly(F5, rng, 1)
        lhs = jacobi_symbol(F5, h, poly_mul(F5, f1, f2))
        assert lhs == jacobi_symbol(F5, h, f1) * jacobi_symbol(F5, h, f2)


def test_char_table_matches_euler():
    for q, d in [(3, 2), (5, 2), (3, 3)]:
        field = PrimeField(q)
        p = primes_of_degree(field, d)[-1]
        table = char_table(field, p)
        assert (table == 1).sum() == (q**d - 1) // 2  # half the units are squares
        rng = np.random.default_rng(1)
        for _ in range(15):
            r = tuple(int(rng.integers(q)) for _ in range(d))
            code = sum(c * q**i for i, c in enumerate(r))
            assert int(table[code]) == legendre_symbol(field, r, p)


def test_symbols_batch_matches_scalar():
    rows = monic_coeff_matrix(F3, 3)
    polys = rows_to_polys(rows)
    for d in (1, 2, 3):
        for p in primes_of_degree(F3, d):
            batch = symbols_batch(F3, rows, p)
            scalars = [legendre_symbol(F3, h, p) for h in polys]
            assert list(batch) == scalars


@pytest.mark.parametrize("p", [(1, 0, 1), (1, 0, 3)], ids=["reducible", "not_monic"])
def test_non_primes_are_rejected(p):
    # over F_5, x^2 + 1 = (x + 2)(x + 3), and 3x^2 + 1 is not monic
    with pytest.raises(PreconditionViolated, match="not a monic prime"):
        symbols_batch(F5, hyperelliptic_rows(F5, 1), p)
    with pytest.raises(PreconditionViolated, match="not a monic prime"):
        char_table(F5, p)


def test_one_prime_symbols_equal_the_degree_blocks():
    for q in (5, 7):
        field = PrimeField(q)
        rows = hyperelliptic_rows(field, 1)
        for d in (1, 2, 3):
            block = np.hstack(list(_degree_symbols(field, rows, d)))
            primes = primes_of_degree(field, d)
            assert block.dtype == np.int8 and block.shape == (rows.shape[0], len(primes))
            for p, column in zip(primes, block.T):
                assert np.array_equal(symbols_batch(field, rows, p), column)


def chunk_bytes(field, rows, degree, primes):
    """A _CHUNK_BYTES value at which a chunk of the given degree holds `primes` primes."""
    return primes * 8 * degree * max(rows.shape[0], field.q**degree)


@pytest.mark.parametrize("q,n", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2), (7, 0), (7, 1), (7, 2), (23, 1)])
def test_chunking_leaves_every_value(monkeypatch, q, n):
    field = PrimeField(q)
    rows = _orbit_representatives(field, hyperelliptic_rows(field, n))[0]
    degrees = range(1, max(2 * n, 2) + 1)

    def values():
        sums = [_prime_sums(field, rows, d).tobytes() for d in degrees]
        return sums, l_polynomials_batch(field, n, rows).tobytes()

    default = values()
    top = degrees[-1]
    for primes in (1, 7):
        # `primes` primes per chunk at the top degree, at least as many below it
        monkeypatch.setattr(ffield, "_CHUNK_BYTES", chunk_bytes(field, rows, top, primes))
        widths = [block.shape[1] for block in _degree_symbols(field, rows, top)]
        assert widths[:-1] == [primes] * (len(widths) - 1) and 1 <= widths[-1] <= primes
        assert values() == default


def test_float_product_exactness_bound():
    # terms (q-1)^2 < 2^53 keeps every float64 residue product an exact integer
    for terms in (2, 4, 6, 7):
        largest = math.isqrt((2**53 - 1) // terms)
        _check_float_exact(largest + 1, terms)
        with pytest.raises(BudgetExceeded, match=f"q = {largest + 2}"):
            _check_float_exact(largest + 2, terms)
    # the symbol route checks it before allocating anything
    big = SimpleNamespace(q=94_906_267)
    with pytest.raises(BudgetExceeded, match="q = 94906267"):
        _chunk_symbols(big, np.zeros((0, 4), dtype=np.int64), np.array([[0, 1]]))


# --- L-polynomials ---------------------------------------------------------


def brute_affine_points(field, h):
    return sum(
        1 for x in range(field.q) for y in range(field.q) if (y * y - poly_eval(field, h, x)) % field.q == 0
    )


def test_l_polynomial_frozen_example():
    L = l_polynomial(F3, (0, 2, 0, 1))  # y^2 = x^3 - x over F_3
    assert L.c == (1, 0, 3)
    assert L.functional_equation_ok()
    assert frobenius_power_sums(L, 3) == [0, -6, 0]
    assert np.allclose(np.abs(L.inverse_roots()), np.sqrt(3), atol=1e-9)


def test_l_polynomial_c1_sign_convention():
    # c_1 = sum_c chi(h(c)) = (#affine points of y^2 = h) - q, checked by brute count
    h = (0, 1, 0, 1)  # x^3 + x over F_5
    L = l_polynomial(F5, h)
    assert L.c[1] == brute_affine_points(F5, h) - 5 == -2
    for h in squarefree_monics(F3, 3):
        assert l_polynomial(F3, h).c[1] == brute_affine_points(F3, h) - 3


def test_l_polynomial_symmetry_endpoint():
    for h in squarefree_monics(F5, 3)[:25]:
        L = l_polynomial(F5, h)
        assert L.c[2] == 5 * L.c[0]


def test_l_polynomial_rejects():
    with pytest.raises(NotSquarefree):
        l_polynomial(F3, (0, 0, 0, 1))  # x^3
    with pytest.raises(ValueError):
        l_polynomial(F3, (1, 1, 1))  # even degree


def test_l_polynomial_reads_h_mod_q():
    # float64 residue products are exact only for entries in [0, q)
    reduced = l_polynomial(F5, (2, 1, 0, 1))
    assert reduced.c == (1, -2, 5)
    for h in [(2**60 + 1, 1, 0, 1), (-3, 1, 0, 1), (2, 6, 5, 11), (2, 1, 0, 1, 10)]:
        assert l_polynomial(F5, h) == reduced, h


def test_l_polynomial_degenerate_n0():
    L = l_polynomial(F3, (1, 1))  # deg h = 1 -> L = 1
    assert L.n == 0 and L.c == (1,)
    assert frobenius_power_sums(L, 4) == [0, 0, 0, 0]


def test_newton_power_sums_roundtrip():
    # (1 - 2z)(1 - 3z) = 1 - 5z + 6z^2: power sums 5, 13, 35
    L = LPolynomial(q=6, n=1, c=(1, -5, 6))
    assert frobenius_power_sums(L, 3) == [5, 13, 35]


def test_l_polynomials_batch_pinned():
    # q = 5, n = 2: all 2500 L-polynomials, pinned by their column sums and a digest
    field = PrimeField(5)
    coeffs = l_polynomials_batch(field, 2, hyperelliptic_rows(field, 2))
    assert coeffs.shape == (2500, 5)
    assert coeffs.sum(axis=0).tolist() == [2500, 0, 10480, 0, 62500]
    assert np.abs(coeffs).sum(axis=0).tolist() == [2500, 4120, 12500, 20600, 62500]
    digest = hashlib.sha256(repr(coeffs.tolist()).encode()).hexdigest()
    assert digest == "0c5883ce7d1680dcff2a7e74b7d69516d8fd7c4f3139207d4f1577befed92713"


def test_l_polynomials_batch_matches_definition():
    # c_i = sum over monic F of degree i of the Jacobi symbol (h/F), on every curve
    for q, n_max in ((3, 2), (5, 1)):
        field = PrimeField(q)
        for n in range(1, n_max + 1):
            rows = hyperelliptic_rows(field, n)
            coeffs = l_polynomials_batch(field, n, rows)
            for h, c in zip(rows_to_polys(rows), coeffs.tolist()):
                want = [1] + [
                    sum(jacobi_symbol(field, h, f) for f in monic_polys(field, i)) for i in range(1, 2 * n + 1)
                ]
                assert c == want, (q, h)


@pytest.mark.parametrize("q,j_max", [(3, 4), (5, 3)])
def test_weighted_char_sums_match_definition(q, j_max):
    # sum over monic Q of degree j of Lambda(Q) (h/Q), every monic h of degree 3;
    # prime_or_prime2 keeps the Q = P^e with e <= 2
    field = PrimeField(q)
    rows = monic_coeff_matrix(field, 3)
    hs = rows_to_polys(rows)
    for j in range(1, j_max + 1):
        powers = [(Q, von_mangoldt(field, Q)) for Q in monic_polys(field, j)]
        powers = [(Q, lam) for Q, lam in powers if lam]
        for mode in ("all_prime_powers", "prime_or_prime2"):
            kept = [(Q, lam) for Q, lam in powers if mode == "all_prime_powers" or j // lam <= 2]
            want = [sum(lam * jacobi_symbol(field, h, Q) for Q, lam in kept) for h in hs]
            assert weighted_char_sums(field, rows, j, mode).tolist() == want, (j, mode)


def test_explicit_formula_exact():
    for q in (3, 5):
        field = PrimeField(q)
        rows = hyperelliptic_rows(field, 1)
        coeffs = l_polynomials_batch(field, 1, rows)
        for j in (1, 2, 3):
            rhs = weighted_char_sums(field, rows, j, "all_prime_powers")
            lhs = np.array(
                [frobenius_power_sums(LPolynomial(q, 1, tuple(int(v) for v in c)), j)[j - 1] for c in coeffs]
            )
            assert np.array_equal(lhs, -rhs)


# --- family averages and tuple sums ----------------------------------------


def test_empirical_moment_trivial():
    assert empirical_moment(F3, 1, Partition()) == 1.0


def test_empirical_moment_converges():
    a = Partition({1: 2})
    ref = moment_usp(1, a)
    errs = [abs(empirical_moment(PrimeField(q), 1, a) - ref) for q in (3, 7, 13)]
    assert errs[0] > errs[-1]
    assert errs[-1] < 0.02


def test_empirical_moment_exact_beyond_int64():
    # at 1^40 the per-curve products overflow int64; oracle in Python ints
    field, a = PrimeField(3), Partition({1: 40})
    rows = hyperelliptic_rows(field, 1)
    sums = weighted_char_sums(field, rows, 1, "all_prime_powers").tolist()
    expected = sum(s**40 for s in sums) / (len(sums) * 3 ** (a.size / 2))
    assert empirical_moment(field, 1, a) == expected == 387420594.1122851


def test_empirical_moment_modes():
    # parts of size <= 2: candidate prime powers coincide, so modes agree exactly
    a = Partition({2: 1})
    f13 = PrimeField(13)
    v1 = empirical_moment(f13, 1, a, "all_prime_powers")
    v2 = empirical_moment(f13, 1, a, "prime_or_prime2")
    assert v1 == v2
    # degree-3 parts differ by higher prime powers, at O(1/q)
    a3 = Partition({3: 1})
    d = abs(
        empirical_moment(f13, 1, a3, "all_prime_powers")
        - empirical_moment(f13, 1, a3, "prime_or_prime2")
    )
    assert d <= 3 / 13


def test_unknown_mode_is_rejected():
    for call in (
        lambda: empirical_moment(F3, 1, Partition({1: 2}), "foo"),
        lambda: empirical_moment(F3, 1, Partition(), "foo"),
        lambda: weighted_char_sums(F3, hyperelliptic_rows(F3, 1), 1, "foo"),
    ):
        with pytest.raises(PreconditionViolated, match="'foo'"):
            call()


@pytest.mark.parametrize(
    "call,fault",
    [
        (lambda: empirical_moment(F5, -1, Partition({1: 2})), "n = -1 is negative"),
        (lambda: empirical_moment(F5, 1.5, Partition({1: 2})), "n = 1.5 is not an integer"),
        (lambda: hyperelliptic_rows(F5, -1), "n = -1 is negative"),
        (lambda: char_sum_distinct_primes(F5, -1, Partition({1: 1})), "n = -1 is negative"),
        (lambda: monic_coeff_matrix(F5, -1), "degree = -1 is negative"),
        (lambda: squarefree_monics(F5, -1), "degree = -1 is negative"),
        (lambda: primes_of_degree(F5, -1), "degree = -1 is negative"),
        (lambda: primes_of_degree(F5, 2.0), "degree = 2.0 is not an integer"),
        (lambda: weighted_char_sums(F5, hyperelliptic_rows(F5, 1), -2, "all_prime_powers"), "j = -2 is negative"),
        (lambda: l_polynomials_batch(F5, 2, hyperelliptic_rows(F5, 1)), "rows of degree 3 for n = 2"),
    ],
    ids=[
        "empirical_negative_n",
        "empirical_fractional_n",
        "family_negative_n",
        "charsum_negative_n",
        "monics_negative_degree",
        "squarefree_negative_degree",
        "primes_negative_degree",
        "primes_fractional_degree",
        "charsum_negative_j",
        "lpoly_rows_of_other_degree",
    ],
)
def test_bad_n_or_degree_is_rejected(call, fault):
    with pytest.raises(PreconditionViolated, match=fault):
        call()


def translate_rows(field, rows, v):
    """Coefficient rows of h(x + v): c'_k = sum_{i >= k} C(i, k) v^(i-k) c_i mod q."""
    d = rows.shape[1] - 1
    shift = np.array([[math.comb(i, k) * v ** (i - k) if i >= k else 0 for k in range(d + 1)] for i in range(d + 1)])
    return (rows @ (shift % field.q)) % field.q


@pytest.mark.parametrize("q", [5, 7])
def test_char_sums_invariant_under_translation(q):
    """h(x) -> h(x+v) keeps every per-curve sum, the fact the orbit sums rest on."""
    field = PrimeField(q)
    rows = hyperelliptic_rows(field, 1)
    for v in range(1, q):
        moved = translate_rows(field, rows, v)
        assert (moved[:, -1] == 1).all() and not (moved == rows).all(axis=1).any()
        for mode in ("all_prime_powers", "prime_or_prime2"):
            for j in (1, 2, 3):
                assert np.array_equal(
                    weighted_char_sums(field, moved, j, mode), weighted_char_sums(field, rows, j, mode)
                )


def full_distinct_prime_sum(symbols, a, weighted):
    """Oracle over every monic h: prod_j a_j! e_{a_j}(x_P : deg P = j), with
    e_m the t^m coefficient of prod_P (1 + x_P t), expanded prime by prime
    (int64 is exact here: at most 55 primes of a degree and m <= 3).
    `symbols[j]` holds the symbol vector of every prime of degree j."""
    terms = 1
    for j, m in a.items:
        elem = [1] + [0] * m
        for sym in symbols[j]:
            x = sym * (j if weighted else 1)
            elem = [1] + [elem[k] + x * elem[k - 1] for k in range(1, m + 1)]
        terms = terms * (math.factorial(m) * elem[m].astype(object))
    return int(terms.sum())


@pytest.mark.parametrize("q", [3, 5, 7, 11])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_orbit_sums_equal_full_family_sums(q, n):
    """Every family sum equals the sum over all rows, as exact integers,
    including q | 2n+1 ((3, 1), (5, 2)), where no rows are dropped."""
    field = PrimeField(q)
    rows = hyperelliptic_rows(field, n)
    reduced, weight = _orbit_representatives(field, rows)
    assert weight == (1 if (2 * n + 1) % q == 0 else q) and reduced.shape[0] * weight == rows.shape[0]
    full_sums = {j: weighted_char_sums(field, rows, j, "all_prime_powers").astype(object) for j in (1, 2)}
    reduced_sums = {j: weighted_char_sums(field, reduced, j, "all_prime_powers").astype(object) for j in (1, 2)}
    monic = monic_coeff_matrix(field, 2 * n + 1)
    symbols = {j: [symbols_batch(field, monic, p).astype(np.int64) for p in primes_of_degree(field, j)] for j in (1, 2)}
    for text in ("1^1", "1^2", "2^1", "1^1 2^1", "2^2", "1^3 2^1"):
        a = Partition.parse(text)
        full = int(math.prod(full_sums[j] ** m for j, m in a.items).sum())
        assert weight * int(math.prod(reduced_sums[j] ** m for j, m in a.items).sum()) == full
        expected = (-1) ** a.length * full / (rows.shape[0] * q ** (a.size / 2))
        assert empirical_moment(field, n, a) == expected
        for weighted in (False, True):
            assert _distinct_prime_sums(field, n, a, weighted) == full_distinct_prime_sum(symbols, a, weighted)


def test_empirical_moment_pinned_reduced_case():
    # q = 23 does not divide 3: the sum runs over 1/23 of the curves
    assert repr(empirical_moment(PrimeField(23), 1, Partition({2: 2}))) == "2.001808169639188"


def test_distinct_prime_sums_zero_range():
    # size(a) <= 2n+1 forces the exact sum to vanish
    for q, field in [(3, F3), (5, F5)]:
        for parts in [{1: 1}, {1: 2}, {2: 1}, {1: 1, 2: 1}]:
            assert char_sum_distinct_primes(field, 1, Partition(parts)) == 0
    assert char_sum_distinct_primes_weighted(F3, 1, Partition()) == 27


def brute_distinct_prime_sum(field, n, a, weighted=False):
    """Oracle: direct loop over h and ordered tuples of distinct primes per
    degree j, each symbol (h/P) weighted by j when `weighted`."""
    primes = {j: primes_of_degree(field, j) for j in a.support}
    total = 0
    for row in monic_coeff_matrix(field, 2 * n + 1).tolist():
        term = 1
        for j, m in a.items:
            s = [legendre_symbol(field, tuple(row), p) * (j if weighted else 1) for p in primes[j]]
            term *= sum(math.prod(t) for t in itertools.permutations(s, m))
        total += term
    return total


def test_distinct_prime_sums_brute():
    a = Partition({1: 2})
    assert char_sum_distinct_primes(F3, 1, a) == brute_distinct_prime_sum(F3, 1, a) == 0
    # two degrees: the per-degree columns multiply row by row
    a = Partition({1: 2, 2: 1})
    assert char_sum_distinct_primes(F5, 1, a) == brute_distinct_prime_sum(F5, 1, a) == -1000
    assert char_sum_distinct_primes_weighted(F5, 1, a) == brute_distinct_prime_sum(F5, 1, a, weighted=True) == -2000
    assert char_sum_distinct_primes(F3, 1, a) == brute_distinct_prime_sum(F3, 1, a) == -54


@pytest.mark.parametrize("q,n,m", [(3, 1, 9), (11, 1, 9), (11, 1, 10)])
def test_distinct_prime_sums_many_primes(q, n, m):
    """Oracle: m! times the sum over m-subsets of the degree-1 primes (zero
    when there are fewer than m primes)."""
    field = PrimeField(q)
    primes = primes_of_degree(field, 1)
    brute = 0
    for row in monic_coeff_matrix(field, 2 * n + 1).tolist():
        s = [legendre_symbol(field, tuple(row), p) for p in primes]
        brute += sum(math.prod(s[i] for i in c) for c in itertools.combinations(range(len(primes)), m))
    assert char_sum_distinct_primes(field, n, Partition({1: m})) == math.factorial(m) * brute


def test_distinct_prime_sums_ts_identity():
    # beyond the vanishing range the sums are nonzero; T = (prod j^{a_j}) S
    a = Partition({2: 2})
    s = char_sum_distinct_primes(F5, 1, a)
    t = char_sum_distinct_primes_weighted(F5, 1, a)
    assert s == -450
    assert t == 4 * s


def brute_square_contribution(field, b):
    """Oracle: materialize tuples of (prime, exponent) candidates, multiply
    polynomials, and check squareness by exact square-root extraction."""
    import itertools as it

    def is_square(f):
        # f monic; square iff all prime exponents even
        return all(e % 2 == 0 for _, e in factorize(field, f))

    cand_lists = []
    for j, m in b.items:
        cands = []
        for p, e, lam in prime_power_terms(field, j):
            poly = p
            if e == 2:
                poly = poly_mul(field, p, p)
            cands.append((poly, lam))
        cand_lists.extend([cands] * m)
    total = 0
    for combo in it.product(*cand_lists):
        prod_poly = (1,)
        weight = 1
        for poly, lam in combo:
            prod_poly = poly_mul(field, prod_poly, poly)
            weight *= lam
        if is_square(prod_poly):
            total += weight
    return total / field.q ** (b.size / 2)


def test_square_contribution_values():
    assert square_contribution(F5, Partition({1: 1})) == 0.0  # odd part, odd multiplicity
    assert square_contribution(F5, Partition({1: 2})) == 1.0
    assert square_contribution(F5, Partition({2: 1})) == 1.0
    assert square_contribution(F5, Partition({2: 2})) == pytest.approx(3 - 2 / 5)
    assert square_contribution(PrimeField(13), Partition({2: 2})) == pytest.approx(3 - 2 / 13)
    # the exact integer behind the q = 29 value: 3 q^2 - 2 q
    assert square_contribution(PrimeField(29), Partition({2: 2})) == 2465 / 29**2
    assert square_contribution(F5, Partition()) == 1.0
    # 2^4 by hand from N_2 = (q^2 - q)/2 primes of degree 2 and s_2 = q prime
    # squares: q^4 + 24 N_2 q^2 + 16 (3 N_2^2 - 2 N_2); 435^4 tuples at q = 29
    for q in (5, 29):
        expected = (25 * q**4 - 36 * q**3 - 4 * q**2 + 16 * q) / q**4
        assert square_contribution(PrimeField(q), Partition({2: 4})) == expected


def test_square_contribution_brute():
    for parts in [{1: 2}, {2: 1}, {2: 2}, {1: 1, 2: 1}, {1: 4}]:
        b = Partition(parts)
        assert square_contribution(F3, b) == pytest.approx(brute_square_contribution(F3, b))
    # each at most 1 600 tuples; the same integer over the same power of q
    for field, parts in [
        (F5, {1: 2, 2: 1}),
        (F5, {3: 2}),
        (F3, {2: 3}),
        (F3, {1: 2, 2: 2}),
        (F3, {4: 1}),
        (F3, {1: 6}),
    ]:
        b = Partition(parts)
        assert square_contribution(field, b) == brute_square_contribution(field, b), (field, b)


def test_even_words_brute():
    # words over N letters with every letter an even number of times, by enumeration
    for letters in range(5):
        for length in range(7):
            brute = sum(
                all(word.count(c) % 2 == 0 for c in range(letters))
                for word in itertools.product(range(letters), repeat=length)
            )
            assert _even_words(letters, length) == brute, (letters, length)


def test_square_contribution_error_times_q_settles():
    # value = g(b) - c/q + O(q^-2), so q |value - g(b)| settles at c as q grows
    for parts, c in [({2: 2}, 2), ({2: 4}, 36), ({1: 2, 2: 2}, 2)]:
        b = Partition(parts)
        scaled = [q * abs(square_contribution(PrimeField(q), b) - gaussian_moment(b)) for q in (29, 101)]
        assert scaled == pytest.approx([c, c], rel=0.005), (b, scaled)
        assert abs(scaled[1] - c) <= abs(scaled[0] - c) + 1e-9, (b, scaled)


def test_square_contribution_approaches_gaussian_moment():
    for parts in [{1: 2}, {2: 2}, {2: 1}]:
        b = Partition(parts)
        target = gaussian_moment(b)
        errs = [abs(square_contribution(PrimeField(q), b) - target) for q in (5, 13, 29)]
        assert all(err <= 2.5 / q for err, q in zip(errs, (5, 13, 29)))


def resultant(field, f, g):
    """Res(f, g) over F_q by Euclid's algorithm: with r = f mod g,
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r), and
    Res(f, c) = c^(deg f) for a constant c."""
    q, out = field.q, 1
    while len(g) > 1:
        r = poly_divmod(field, f, g)[1]
        if not r:
            return 0
        m, n = len(f) - 1, len(g) - 1
        out = out * (-1) ** (m * n) * pow(g[-1], m - len(r) + 1, q) % q
        f, g = g, r
    return out * pow(g[0], len(f) - 1, q) % q if g else 0


def resultant_symbol(field, h, p):
    """(h/P) for a monic prime P as chi(Res(P, h)): Res(P, h) is the norm of
    h(alpha) for a root alpha of P, and Euler's criterion in F_{q^deg P}
    reduces to the one in F_q."""
    return chi(field, resultant(field, p, h))


def test_resultant_symbol_matches_legendre():
    rng = np.random.default_rng(4)
    for q in (3, 5, 7):
        field = PrimeField(q)
        primes = [p for j in (1, 2, 3) for p in primes_of_degree(field, j)]
        hs = [random_poly(field, rng, 3) for _ in range(4)] + [poly_mul(field, primes[0], primes[-1])]
        for h in hs:
            for p in primes:
                assert resultant_symbol(field, h, p) == legendre_symbol(field, h, p), (q, h, p)


def test_weil_bound_decay():
    rng = np.random.default_rng(3)
    qs = (3, 5, 7, 11, 13, 17, 19, 23, 29)
    for q in qs:
        field = PrimeField(q)
        for _ in range(4):
            h = random_poly(field, rng, 3)
            for j in (1, 2, 3):
                total = sum(resultant_symbol(field, h, p) for p in primes_of_degree(field, j))
                assert abs(total) <= 4 * q ** (j / 2)
