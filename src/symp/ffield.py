"""F_q[x] arithmetic and the character sums behind the finite-field checks.

Everything runs over a prime field F_q (q an odd prime).  Polynomials are
coefficient tuples, low degree first, trailing zeros stripped; the zero
polynomial is ().  Hot loops operate on numpy matrices of monic-polynomial
coefficient rows and per-prime quadratic-character lookup tables, so that a
full sweep over all monic h of degree 2n+1 stays vectorized; reductions over
the family multiply and sum whole columns of exact Python integers (numpy
object arrays, no overflow guard), so they are exact at any size and
independent of scheduling.
Prime tables, the squarefree family and the L-polynomials' tables of
(h/F) are sieves over base-q codes sum_i c_i q^i of monic polynomials (a
code is the row index in ``monic_coeff_matrix``); (h/F) is completely
multiplicative in F, so the row of P * G is (h/P) (h/G).  Every
prime symbol (h/P) comes by one route, ``_degree_symbols``, which works on
chunks of the primes of one degree: it builds every prime's matrix of
x^t mod P at once, reduces the coefficient rows and the squares of all
residues with one float64 product each (BLAS; exact integers while
(deg h + 1)(q - 1)^2 < 2^53, checked), and reads each symbol from the
chunk's character tables, marked in one flat int8 array, by residue code.
A chunk holds as many primes as keep its residues within _CHUNK_BYTES, a
constant, so memory does not grow with the number of primes; chunking
changes no value.  ``symbols_batch`` and ``char_table`` are one-prime
chunks of the same route.  The family sums read two per-degree columns,
sum_P (h/P) and #{P : P does not divide h}, from the chunks' blocks.
Every table over the q^d codes of one degree passes ``_check_codes`` (q^d <=
DEFAULT_BUDGET) first; ``empirical_moment``'s budget (``ffcheck --budget``)
is checked once, at entry, and can only lower that bound.

The family sums run over one curve per translation orbit.  h(x) -> h(x+v)
permutes the primes of every degree, so it keeps every per-curve sum
sum_Q Lambda(Q) (h/Q); it moves c_{d-1} to c_{d-1} + d v, so when q does not
divide d = deg h each orbit holds exactly one h with c_{d-1} = 0, and a sum
over the family (or over all monic h) is q times the sum over those.  When q
divides d every h keeps its c_{d-1} and the sums run over all rows.

The main consumers:

* ``l_polynomial`` -- the numerator polynomial of the zeta function of
  y^2 = h(x), with exact integer coefficients c_i = sum_{deg F = i} (h/F).
* ``frobenius_power_sums`` -- power sums of its inverse roots via Newton's
  identities, to compare exactly against -sum_{deg Q = j} Lambda(Q) (h/Q).
* ``empirical_moment`` -- averages of unitarized Frobenius trace products
  over the hyperelliptic family, converging to Haar moments as q grows.
* ``char_sum_distinct_primes`` / ``square_contribution`` -- the exact
  distinct-prime and square-product tuple sums.  A slot P^2 is a square and
  a prime of degree j enters to an odd power only through slots of degree
  j, so the square-product sum is a product over part sizes j of closed
  forms in the prime counts, sum_{k even <= b_j} C(b_j, k) j^k W(N_j, k)
  s_j^(b_j - k) (see ``square_contribution``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm
from typing import Iterator, Literal, Sequence, get_args

import numpy as np

from .errors import BudgetExceeded, NotSquarefree, PreconditionViolated
from .moments import nonnegative_int
from .partitions import Partition

Poly = tuple[int, ...]

DEFAULT_BUDGET = 10**8

# bytes of float64 residues per chunk of primes in _degree_symbols (a chunk
# holds at least one prime): bounds the working set whatever the number of
# primes of the degree.  Chunks of 1 to 4 MiB ran the ffield benchmark ops
# slower than 256 KiB and raise the peak memory.
_CHUNK_BYTES = 1 << 18

Mode = Literal["all_prime_powers", "prime_or_prime2"]


def _is_prime_int(m: int) -> bool:
    if m < 2:
        return False
    p = 2
    while p * p <= m:
        if m % p == 0:
            return False
        p += 1
    return True


class PrimeField:
    """F_q for an odd prime q, with cached prime tables and squares of residues."""

    def __init__(self, q: int):
        if not isinstance(q, (int, np.integer)) or q < 3 or q % 2 == 0 or not _is_prime_int(q):
            raise ValueError(f"q must be an odd prime, got {q!r}")
        self.q = int(q)
        self._primes: dict[int, list[Poly]] = {}
        self._residue_squares: dict[int, np.ndarray] = {}

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


# ---------------------------------------------------------------------------
# polynomial arithmetic on coefficient tuples


def poly_trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def poly_sub(field: PrimeField, f: Poly, g: Poly) -> Poly:
    q = field.q
    n = max(len(f), len(g))
    return poly_trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % q for i in range(n)])


def poly_mul(field: PrimeField, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    q = field.q
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for k, gk in enumerate(g):
                out[i + k] = (out[i + k] + fi * gk) % q
    return poly_trim(out)


def poly_divmod(field: PrimeField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = field.q
    rem = list(f)
    dg = poly_degree(g)
    inv_lead = pow(g[-1], q - 2, q)
    quot = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        coef = rem[i] % q
        if coef:
            factor = (coef * inv_lead) % q
            quot[i - dg] = factor
            for k, gk in enumerate(g):
                rem[i - dg + k] = (rem[i - dg + k] - factor * gk) % q
    return poly_trim(quot), poly_trim(rem[:dg])


def poly_mod(field: PrimeField, f: Poly, g: Poly) -> Poly:
    return poly_divmod(field, f, g)[1]


def poly_gcd(field: PrimeField, f: Poly, g: Poly) -> Poly:
    while g:
        f, g = g, poly_mod(field, f, g)
    if f:
        inv_lead = pow(f[-1], field.q - 2, field.q)
        f = poly_trim([(c * inv_lead) % field.q for c in f])
    return f


def poly_deriv(field: PrimeField, f: Poly) -> Poly:
    return poly_trim([(i * f[i]) % field.q for i in range(1, len(f))])


def poly_pow_mod(field: PrimeField, base: Poly, exponent: int, modulus: Poly) -> Poly:
    result: Poly = (1,)
    base = poly_mod(field, base, modulus)
    while exponent:
        if exponent & 1:
            result = poly_mod(field, poly_mul(field, result, base), modulus)
        base = poly_mod(field, poly_mul(field, base, base), modulus)
        exponent >>= 1
    return result


def is_squarefree(field: PrimeField, f: Poly) -> bool:
    return poly_degree(poly_gcd(field, f, poly_deriv(field, f))) == 0


def is_irreducible(field: PrimeField, f: Poly) -> bool:
    """Frobenius-based test: x^(q^d) = x mod f and no proper-subfield fixes."""
    d = poly_degree(f)
    if d < 1:
        return False
    q = field.q
    x: Poly = (0, 1)
    frob = x
    powers = {}
    for step in range(1, d + 1):
        frob = poly_pow_mod(field, frob, q, f)
        powers[step] = frob
    if poly_sub(field, powers[d], poly_mod(field, x, f)):
        return False
    for p in range(2, d + 1):
        if d % p == 0 and _is_prime_int(p):
            g = poly_gcd(field, poly_sub(field, powers[d // p], x), f)
            if poly_degree(g) > 0:
                return False
    return True


def primes_of_degree(field: PrimeField, degree: int) -> list[Poly]:
    """Monic irreducibles of the given degree, ordered with c_{degree-1}
    varying fastest, then c_{degree-2}, ..., c_0 slowest (cached).

    A sieve over base-q codes: the codes of every product P * G with P prime
    of degree e <= degree/2 and G monic are marked composite, and the codes
    left unmarked are the primes.
    """
    degree = nonnegative_int(degree, "degree")
    count = _check_codes(field, degree)  # before the cache: one outcome per call
    if degree not in field._primes:
        composite = np.zeros(count, dtype=bool)
        for e in range(1, degree // 2 + 1):
            factors = np.array(primes_of_degree(field, e), dtype=np.int64)
            composite[_product_codes(field, factors, monic_coeff_matrix(field, degree - e))] = True
        field._primes[degree] = _monic_polys_where(field, degree, ~composite) if degree else []
    return field._primes[degree]


# ---------------------------------------------------------------------------
# vectorized character-sum layer


def _check_codes(field: PrimeField, degree: int, budget: int = DEFAULT_BUDGET) -> int:
    """q^degree, the number of monic codes of that degree; BudgetExceeded above the budget."""
    count = field.q ** nonnegative_int(degree, "degree")
    if count > budget:
        raise BudgetExceeded(f"q^{degree} = {count} exceeds budget {budget}")
    return count


def monic_coeff_matrix(field: PrimeField, degree: int) -> np.ndarray:
    """(q^degree, degree+1) int64 rows [c_0 .. c_{degree-1}, 1]; row index = base-q code."""
    return _code_rows(field, np.arange(_check_codes(field, degree)), degree)


def _code_rows(field: PrimeField, codes: np.ndarray, degree: int) -> np.ndarray:
    """Monic coefficient rows of the given base-q codes (c_0 is the lowest digit)."""
    q = field.q
    rows = np.empty((codes.shape[0], degree + 1), dtype=np.int64)
    for i in range(degree):
        rows[:, i] = (codes // q**i) % q
    rows[:, degree] = 1
    return rows


def _code(field: PrimeField, p: Poly) -> int:
    """Base-q code of the monic p (its row index in ``monic_coeff_matrix``)."""
    return sum(c * field.q**k for k, c in enumerate(p[:-1]))


def _product_codes(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Base-q codes of every product of a row of `a` with a row of `b`.

    Both hold monic coefficient rows; the result is flat, `a`-major.  It is
    a batched convolution mod q, one output coefficient at a time, so the
    working set is two (len(a), len(b)) arrays.
    """
    q = field.q
    da, db = a.shape[1] - 1, b.shape[1] - 1
    codes = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for k in range(da + db):
        coef = np.zeros_like(codes)
        for s in range(max(0, k - db), min(da, k) + 1):
            coef += np.outer(a[:, s], b[:, k - s])
        codes += (coef % q) * q**k
    return codes.ravel()


def _monic_polys_where(field: PrimeField, degree: int, keep: np.ndarray) -> list[Poly]:
    """The monic polynomials whose codes `keep` marks, with c_{degree-1}
    varying fastest and c_0 slowest.

    The code varies c_0 fastest: reversing the axes of the code grid maps one
    order onto the other.
    """
    q = field.q
    order = np.arange(q**degree).reshape((q,) * degree).T.ravel()
    return [tuple(r) for r in _code_rows(field, order[keep[order]], degree).tolist()]


def _squarefree_codes(field: PrimeField, degree: int) -> np.ndarray:
    """Mask over the base-q codes of monic polynomials of the given degree,
    True where squarefree: a sieve that marks P^2 * G for every prime P of
    degree e <= degree/2 and every monic G of degree - 2e."""
    squarefree = np.ones(_check_codes(field, degree), dtype=bool)
    for e in range(1, degree // 2 + 1):
        squares = _square_rows(field, np.array(primes_of_degree(field, e), dtype=np.int64))
        squarefree[_product_codes(field, squares, monic_coeff_matrix(field, degree - 2 * e))] = False
    return squarefree


def _square_rows(field: PrimeField, rows: np.ndarray) -> np.ndarray:
    """Coefficient rows of the square of every row: a row self-convolution mod q."""
    k = rows.shape[1]
    out = np.zeros((rows.shape[0], 2 * k - 1), dtype=np.int64)
    for i in range(k):
        out[:, i : i + k] += rows[:, i, None] * rows
    return out % field.q


def char_table(field: PrimeField, p: Poly) -> np.ndarray:
    """Quadratic-character table of F_q[x]/(p) indexed by base-q residue code:
    the symbols of all residues, as rows of degree < deg p, by a one-prime
    ``_chunk_symbols`` call; p must be a monic prime (PreconditionViolated
    otherwise)."""
    primes = _one_prime(field, p)
    d = primes.shape[1] - 1
    return _chunk_symbols(field, _code_rows(field, np.arange(field.q**d), d)[:, :d], primes)[:, 0]


def symbols_batch(field: PrimeField, rows: np.ndarray, p: Poly) -> np.ndarray:
    """(h/p) for every coefficient row h (entries in [0, q)): a one-prime
    chunk of ``_chunk_symbols``; p must be a monic prime (PreconditionViolated
    otherwise)."""
    return _chunk_symbols(field, rows, _one_prime(field, p))[:, 0]


def _one_prime(field: PrimeField, p: Poly) -> np.ndarray:
    """p as a (1, deg p + 1) coefficient row, if it is one of ``primes_of_degree``."""
    d = poly_degree(p)
    if d < 1 or tuple(p) not in primes_of_degree(field, d):
        raise PreconditionViolated(f"{tuple(p)} is not a monic prime of F_{field.q}[x]")
    return np.array([p], dtype=np.int64)


def _check_float_exact(q: int, terms: int) -> None:
    """A float64 dot product of `terms` products of residues in [0, q) is an
    exact integer, in any summation order, while terms (q-1)^2 < 2^53."""
    if terms * (q - 1) ** 2 >= 2**53:
        raise BudgetExceeded(f"q = {q}: {terms} (q-1)^2 >= 2^53, float64 residue products would not be exact")


def _powers_mod(field: PrimeField, primes: np.ndarray, deg_in: int) -> np.ndarray:
    """x^t mod P for t = 0..deg_in and every prime row P, as a float64
    (deg_in+1, primes, deg P) array.

    The monic recurrence, for all primes at once: x^(t+1) mod P is x^t mod P
    shifted up one place, minus its top coefficient times P's low coefficients.
    """
    count, d = primes.shape[0], primes.shape[1] - 1
    low = primes[:, :d]
    mat = np.zeros((deg_in + 1, count, d), dtype=np.int64)
    mat[0, :, 0] = 1
    for t in range(1, deg_in + 1):
        mat[t, :, 1:] = mat[t - 1, :, :-1]
        mat[t] = (mat[t] - mat[t - 1, :, -1:] * low) % field.q
    return mat.astype(np.float64)


def _reduced_codes(field: PrimeField, rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """(rows, primes) base-q codes of every coefficient row reduced mod every
    prime: one float64 product (exact, see ``_check_float_exact``)."""
    q, d = field.q, powers.shape[2]
    deg_in = rows.shape[1] - 1
    flat = powers[: deg_in + 1].reshape(deg_in + 1, -1)
    residues = (np.asarray(rows, dtype=np.float64) @ flat).astype(np.int64)
    residues %= q
    residues = residues.reshape(rows.shape[0], -1, d)
    codes = residues[..., d - 1]
    for i in range(d - 2, -1, -1):  # Horner: c_0 is the lowest base-q digit
        codes = codes * q + residues[..., i]
    return codes


def _chunk_symbols(field: PrimeField, rows: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(rows, primes) int8 symbols (h/P) for a chunk of primes of one degree
    d: reduce the rows mod every P, mark every P's character table, and read
    each symbol from the tables at residue code + P's offset."""
    q, d = field.q, primes.shape[1] - 1
    deg_in = max(rows.shape[1] - 1, 2 * d - 2)
    _check_float_exact(q, deg_in + 1)
    powers = _powers_mod(field, primes, deg_in)
    # every prime of degree d reduces the same squares of all residues (cached;
    # q^d passed the guard of primes_of_degree)
    if d not in field._residue_squares:
        residues = _code_rows(field, np.arange(q**d), d)[:, :d]
        field._residue_squares[d] = _square_rows(field, residues).astype(np.float64)
    # the chunk's character tables end to end in one flat array, P's at
    # offset i q^d: 1 at the squares of all residues, 0 at the zero residue,
    # -1 elsewhere
    offsets = q**d * np.arange(primes.shape[0])
    tables = np.full(offsets.size * q**d, -1, dtype=np.int8)
    tables[_reduced_codes(field, field._residue_squares[d], powers) + offsets] = 1
    tables[offsets] = 0
    return tables.take(_reduced_codes(field, rows, powers) + offsets)


def _degree_symbols(field: PrimeField, rows: np.ndarray, degree: int) -> Iterator[np.ndarray]:
    """(h/P) for every row h and every prime P of the given degree, as int8
    (rows, primes) blocks in ``primes_of_degree`` order.  A block holds as
    many primes as keep its float64 residues within _CHUNK_BYTES."""
    primes = np.array(primes_of_degree(field, degree), dtype=np.int64)
    per_prime = 8 * degree * max(rows.shape[0], field.q**degree)
    step = max(1, _CHUNK_BYTES // per_prime)
    for start in range(0, primes.shape[0], step):
        yield _chunk_symbols(field, rows, primes[start : start + step])


def _check_mode(mode: str) -> None:
    if mode not in get_args(Mode):
        raise PreconditionViolated(f"unknown mode {mode!r}: expected one of {', '.join(get_args(Mode))}")


def _power_degrees(j: int, mode: Mode) -> list[tuple[int, int]]:
    """(e, deg P) for every prime power P^e of degree j kept by `mode`."""
    _check_mode(mode)
    return [(e, j // e) for e in range(1, j + 1) if j % e == 0 and (mode == "all_prime_powers" or e <= 2)]


def _prime_sums(field: PrimeField, rows: np.ndarray, degree: int) -> np.ndarray:
    """Two int64 columns over the primes P of the given degree, for every row
    h: sum_P (h/P), and #{P : P does not divide h}, which is sum_P (h/P)^2."""
    sums = np.zeros((2, rows.shape[0]), dtype=np.int64)
    for block in _degree_symbols(field, rows, degree):
        sums[0] += block.sum(axis=1, dtype=np.int64)
        sums[1] += np.count_nonzero(block, axis=1)
    return sums


def weighted_char_sums(field: PrimeField, rows: np.ndarray, j: int, mode: Mode) -> np.ndarray:
    """sum_{deg Q = j} Lambda(Q) (h/Q) for every row h, as exact int64.

    Q = P^e has Lambda(Q) = deg P, and (h/P^e) is (h/P) for odd e and
    [P does not divide h] for even e.
    """
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    for e, d in _power_degrees(nonnegative_int(j, "j"), mode):
        odd, even = _prime_sums(field, rows, d)
        acc += d * (odd if e % 2 else even)
    return acc


# ---------------------------------------------------------------------------
# L-polynomials


@dataclass(frozen=True)
class LPolynomial:
    """Integer coefficients c_0..c_{2n} of the zeta numerator of y^2 = h(x)."""

    q: int
    n: int
    c: tuple[int, ...]

    def functional_equation_ok(self) -> bool:
        """c_{2n-i} = q^{n-i} c_i for all i, checked in integers as q^i c_{2n-i} = q^n c_i."""
        for i in range(2 * self.n + 1):
            if self.c[2 * self.n - i] * self.q**i != self.q**self.n * self.c[i]:
                return False
        return True

    def inverse_roots(self) -> np.ndarray:
        """Inverse roots alpha_i (so L(z) = prod (1 - alpha_i z)), numerically."""
        if self.n == 0:
            return np.array([], dtype=complex)
        return 1.0 / np.roots(np.array(self.c[::-1], dtype=float))


def l_polynomials_batch(field: PrimeField, n: int, rows: np.ndarray) -> np.ndarray:
    """c_0..c_{2n} for every (squarefree monic, degree 2n+1) coefficient row.

    c_i = sum_{deg F = i} (h/F), by a sieve over the base-q codes of F: an
    int8 table of (h/F) per degree, one row per code and one column per
    curve.  The symbol is completely multiplicative, so the row of P * G,
    with P prime of degree e <= i/2 and G monic, is (h/P) (h/G), written one
    prime at a time (every split of F writes the same value); the rows of
    the primes of degree i come from that degree's ``_degree_symbols``
    blocks.  The tables hold sum_{i <= 2n} q^i entries per curve;
    BudgetExceeded is raised before any is allocated when the total exceeds
    DEFAULT_BUDGET.
    """
    if rows.shape[1] != 2 * n + 2:
        raise PreconditionViolated(f"rows of degree {rows.shape[1] - 1} for n = {n}: need degree 2n+1")
    entries = sum(field.q**i for i in range(2 * n + 1)) * rows.shape[0]
    if entries > DEFAULT_BUDGET:
        raise BudgetExceeded(f"L-polynomial tables of {entries} entries exceed budget {DEFAULT_BUDGET}")
    tables = [np.ones((1, rows.shape[0]), dtype=np.int8)]  # degree 0: F = 1
    for i in range(1, 2 * n + 1):
        table = np.zeros((field.q**i, rows.shape[0]), dtype=np.int8)
        for e in range(1, i // 2 + 1):
            primes = primes_of_degree(field, e)
            products = _product_codes(field, np.array(primes, dtype=np.int64), monic_coeff_matrix(field, i - e))
            for p, codes in zip(primes, products.reshape(len(primes), -1)):
                table[codes] = tables[e][_code(field, p)] * tables[i - e]
        codes = [_code(field, p) for p in primes_of_degree(field, i)]
        start = 0
        for block in _degree_symbols(field, rows, i):
            table[codes[start : start + block.shape[1]]] = block.T
            start += block.shape[1]
        tables.append(table)
    return np.stack([table.sum(axis=0, dtype=np.int64) for table in tables], axis=1)


def l_polynomial(field: PrimeField, h: Poly) -> LPolynomial:
    """L-polynomial of the hyperelliptic curve y^2 = h(x), exact coefficients
    (h is read mod q)."""
    h = poly_trim([c % field.q for c in h])
    degree = poly_degree(h)
    if degree < 1 or degree % 2 == 0 or not poly_is_monic(h):
        raise ValueError("h must be monic of odd degree >= 1")
    if not is_squarefree(field, h):
        raise NotSquarefree(f"h = {h} is not squarefree")
    n = (degree - 1) // 2
    coeffs = l_polynomials_batch(field, n, np.array([h], dtype=np.int64))[0]
    return LPolynomial(field.q, n, tuple(int(v) for v in coeffs))


def frobenius_power_sums(lpoly: LPolynomial, j_max: int) -> list[int]:
    """Power sums s_j = sum_i alpha_i^j, exactly, via Newton's identities."""
    elem = [0] * (j_max + 1)
    for i in range(min(j_max, 2 * lpoly.n) + 1):
        elem[i] = (-1) ** i * lpoly.c[i]
    sums = [0] * (j_max + 1)
    for k in range(1, j_max + 1):
        acc = (-1) ** (k - 1) * k * elem[k] if k <= 2 * lpoly.n else 0
        for i in range(1, k):
            if i <= 2 * lpoly.n:
                acc += (-1) ** (i - 1) * elem[i] * sums[k - i]
        sums[k] = acc
    return sums[1:]


# ---------------------------------------------------------------------------
# family averages and tuple sums


def hyperelliptic_rows(field: PrimeField, n: int) -> np.ndarray:
    """Coefficient rows of the family {h monic squarefree, deg h = 2n+1}."""
    degree = 2 * nonnegative_int(n, "n") + 1
    return _code_rows(field, np.flatnonzero(_squarefree_codes(field, degree)), degree)


def _orbit_representatives(field: PrimeField, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """One monic row per orbit of h(x) -> h(x+v), and the orbit size.

    When q does not divide d = deg h, the rows with c_{d-1} = 0 and weight q;
    otherwise every row and weight 1.  Valid for any translation-closed set
    of rows, such as all monic or all squarefree monic h of degree d.
    """
    degree = rows.shape[1] - 1
    if degree % field.q == 0:
        return rows, 1
    return rows[rows[:, degree - 1] == 0], field.q


def empirical_moment(
    field: PrimeField,
    n: int,
    a: Partition,
    mode: Mode = "all_prime_powers",
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Family average of prod_j tr(Theta_h^j)^{a_j}; -> moment_usp(n, a) as q grows.

    Per curve, q^{j/2} tr(Theta_h^j) = -sum_{deg Q = j} Lambda(Q) (h/Q); the
    products over j are exact Python integers, no overflow guard, summed
    before the single final division, so the average is independent of
    chunking.  The sum runs over one curve per translation orbit (all curves
    when q divides 2n+1); the sum and the curve count are multiplied by the
    orbit size before the division, so they are the full family's integers.
    """
    _check_mode(mode)  # also for the empty partition, which reads no prime power
    for degree in (2 * nonnegative_int(n, "n") + 1, *a.support):  # bounds every table built here
        _check_codes(field, degree, budget)
    rows, weight = _orbit_representatives(field, hyperelliptic_rows(field, n))
    product = np.ones(rows.shape[0], dtype=object)
    for j, m in a.items:
        product = product * weighted_char_sums(field, rows, j, mode).astype(object) ** m
    sign = (-1) ** a.length
    return sign * (weight * int(product.sum())) / (weight * rows.shape[0] * field.q ** (a.size / 2))


def _elementary_from_power_sums(power: list[int], r: int) -> int:
    """e_r from p_1..p_r by Newton's identities (exact integers)."""
    elem = [1] + [0] * r
    for k in range(1, r + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * elem[k - i] * power[i - 1]
        elem[k] = acc // k
    return elem[r]


def _distinct_prime_sums(field: PrimeField, n: int, a: Partition, weighted: bool) -> int:
    """Sum over monic h of prod_j a_j! e_{a_j}(x_P : deg P = j), with x_P =
    (h/P), times j when weighted.  Newton's identities give e_m from the
    power sums sum_P x_P^k: scale^k times the ``_prime_sums`` column
    sum_P (h/P) for odd k and #{P : P does not divide h} for even k.  The
    summand is invariant under h(x) -> h(x+v), so the sum runs over one h
    per translation orbit times the orbit size (all h when q divides 2n+1)."""
    rows, weight = _orbit_representatives(field, monic_coeff_matrix(field, 2 * nonnegative_int(n, "n") + 1))
    terms = np.ones(rows.shape[0], dtype=object)
    for j, m in a.items:
        odd, even = _prime_sums(field, rows, j).astype(object)
        scale = j if weighted else 1
        power = [scale**k * (odd if k % 2 else even) for k in range(1, m + 1)]
        terms = terms * (factorial(m) * _elementary_from_power_sums(power, m))
    return weight * int(terms.sum())


def char_sum_distinct_primes(field: PrimeField, n: int, a: Partition) -> int:
    """Exact sum over monic h (deg 2n+1) and tuples of distinct primes P_ji
    (deg P_ji = j, a_j picks per degree) of prod (h/P_ji)."""
    return _distinct_prime_sums(field, n, a, weighted=False)


def char_sum_distinct_primes_weighted(field: PrimeField, n: int, a: Partition) -> int:
    """Same sum with each factor weighted by Lambda(P_ji) = j."""
    return _distinct_prime_sums(field, n, a, weighted=True)


@lru_cache(maxsize=256)
def _even_splits(k: int, r: int) -> int:
    """B(k, r): splits of k labelled positions into r blocks of even size
    (the first position's block holds 2t of them)."""
    if r == 0:
        return int(k == 0)
    return sum(comb(k - 1, 2 * t - 1) * _even_splits(k - 2 * t, r - 1) for t in range(1, k // 2 + 1))


def _even_words(letters: int, length: int) -> int:
    """W(N, k): length-k words over N letters, each letter an even number of
    times; the r letters used label the r blocks of a B(k, r) split."""
    return sum(_even_splits(length, r) * perm(letters, r) for r in range(length // 2 + 1))


def square_contribution(field: PrimeField, b: Partition) -> float:
    """q^(-size(b)/2) * sum over prime-or-prime^2 tuples (Q_ji, deg Q_ji = j)
    whose product is a perfect square, of prod Lambda(Q_ji).

    Exact: a slot P^2 is a square and a prime of degree j is picked to the
    first power only by slots of degree j, so the product is a square iff
    for each j those slots pick every prime an even number of times.  Part
    size j of multiplicity m contributes sum_{k even <= m} C(m, k) j^k
    W(N_j, k) s_j^(m-k), with N_j primes of degree j (``primes_of_degree``:
    BudgetExceeded when q^j > DEFAULT_BUDGET) and s_j = (j/2) N_{j/2}, the
    Lambda-weighted count of the prime squares of degree j (0 for odd j).
    """
    total = 1
    for j, m in b.items:
        primes = len(primes_of_degree(field, j))
        squares = j // 2 * len(primes_of_degree(field, j // 2)) if j % 2 == 0 else 0
        total *= sum(comb(m, k) * j**k * _even_words(primes, k) * squares ** (m - k) for k in range(0, m + 1, 2))
    return total / field.q ** (b.size / 2)
