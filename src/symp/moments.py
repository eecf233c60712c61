"""Closed-form trace moments for the classical compact groups.

The central object is ``moment_usp(n, a)``, the exact value of
``int_{USp(2n)} prod_j tr(U^j)^{a_j} dU`` for partitions with
``size(a) <= 4n+1``:

    moment_usp(n, a) = (-1)^len(a) * sum_{b <= a} C(a,b) g(b) phi(n, a-b)

where ``g`` is the moment of the shifted-Gaussian model (``gaussian_moment``
here) and ``phi`` is the finite-n correction (``nongaussian_correction``).

Both are evaluated by one size-indexed dynamic programme,
``moment_usp_sum``.  Writing c = a - b and expanding phi's inner sum over
d <= c, ``C(a,b) C(c,d) = prod_j a_j!/(b_j! d_j! e_j!)`` with e = c - d, so
every factor splits per part size except phi's weight, which depends only on
(size c, size d): 1 for empty c, -1 for even size c with
size d <= size c/2 - n - 1, else 0.  The programme runs over the part sizes
with states (parts placed, size c, size d) and drops a state as soon as that
weight can no longer be nonzero.  Each part size makes one pass over the
states: a memoized transfer table, keyed only by (j, w, k), lists every
split k = b + d + e of its k parts as a step (size c += j(d+e), size d +=
j d) with its integer weight, sorted by how much the step adds to the slack
size c + reach - (2n+2) - 2 size d, so a state's pass stops at the first
step that leaves phi no chance.  In the Gaussian range size(a) <= 2n+1 only
the empty-c state survives, which is how the formula collapses to g(a).  The
same programme sums the linear-statistic expansion of :mod:`symp.linstat`.
Everything in this module is exact integer arithmetic; the only rounding
anywhere lives in the numerical oracles of :mod:`symp.haar`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import index, itemgetter
from typing import Iterator, NamedTuple

from .errors import OutOfRange, PreconditionViolated
from .partitions import Partition, sub_partitions


def double_factorial(k: int) -> int:
    """(k)!! with the convention 0!! = (-1)!! = 1."""
    if k <= 0:
        return 1
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def even_indicator(j: int) -> int:
    """1 if j is even, else 0."""
    return 1 - (j & 1)


def gaussian_moment_single(j: int, a: int) -> int:
    """Moment E[(sqrt(j) X + eta_j)^a] for a standard real Gaussian X.

    Vanishes when j*a is odd; equals j^(a/2) (a-1)!! for odd j and even a;
    for even j it is sum_l C(a, 2l) j^l (2l-1)!!.
    """
    if (j * a) % 2 == 1:
        return 0
    if j % 2 == 1:
        return j ** (a // 2) * double_factorial(a - 1)
    return sum(comb(a, 2 * l) * j**l * double_factorial(2 * l - 1) for l in range(a // 2 + 1))


def gaussian_moment(b: Partition) -> int:
    """Product of gaussian_moment_single over the support of b (1 on empty)."""
    result = 1
    for j, m in b.items:
        result *= gaussian_moment_single(j, m)
        if result == 0:
            return 0
    return result


def nongaussian_correction(n: int, c: Partition) -> int:
    """Correction factor phi(n, c).

    1 when c is empty, 0 when size(c) is odd, and otherwise
    ``-sum_{d <= c, size(d) <= size(c)/2 - n - 1} (-1)^len(d) C(c, d)``
    (0 when the constraint set is empty).
    """
    total_size = c.size
    if total_size == 0:
        return 1
    if total_size % 2 == 1:
        return 0
    bound = total_size // 2 - n - 1
    if bound < 0:
        return 0
    acc = 0
    for d in sub_partitions(c):
        if d.size <= bound:
            acc += (-1) ** d.length * c.binomial(d)
    return -acc


def nonnegative_int(value, name: str) -> int:
    """``value`` as an int (``operator.index``); PreconditionViolated naming
    ``name`` unless it is a non-negative integer."""
    try:
        result = index(value)
    except TypeError:
        raise PreconditionViolated(f"{name} = {value!r} is not an integer") from None
    if result < 0:
        raise PreconditionViolated(f"{name} = {result} is negative")
    return result


def moment_usp_sum(n: int, m: int, blocks, zero_weight: int = 0) -> int:
    """Sum over index sequences of length m of the weighted USp moments.

    ``blocks`` lists ``(j, w, count)`` for distinct part sizes j >= 1; a
    sequence places k_j of its m indices on j and the remaining k_0 on the
    index 0, whose trace is the constant ``zero_weight``.  Either every
    count is an int, k_j == count and the counts sum to m, or every count is
    None, and k_j is free.  Returns

        sum_k m!/(k_0! prod_j k_j!) zero_weight^k_0 prod_j w^k_j moment_usp(n, k)

    for exact integer weights.  Raises OutOfRange unless every k has size
    <= 4n+1, where no formula is claimed.

    Each k_j splits as b + d + e (b the Gaussian part, c = d + e the
    correction part, d the inner sum of phi), and the weight
    ``C(k,b) C(d+e,d) g_j(b) (-1)^(b+e) w^k`` factors per j.  Only phi
    couples the part sizes, through (size c, size d), so one pass over the
    blocks with states (parts placed t, size c, size d) sums every split:
    block j moves a state by each entry (j(d+e), j d, weight) of its
    transfer table for k, times C(t+k, k) for the interleaving.  A state
    with c nonempty survives only while phi can still be nonzero at the
    end: size d <= n-1 and size c can still reach 2n+2+2 size d.  Adding
    the entry changes that slack by j(e-d), so a table lists its entries in
    that order, largest first, and the first one that falls short ends the
    state's pass; the entry b = k, which leaves c as it is, is kept apart
    so that a state with empty c always survives.
    """
    n = nonnegative_int(n, "n")
    m = nonnegative_int(m, "m")
    # widest part first: what the remaining blocks can still add to size c
    # then shrinks fastest, and so does the set of surviving states
    blocks = sorted(blocks, key=itemgetter(0), reverse=True)
    fixed = _check_blocks(m, blocks)
    if fixed:
        largest = sum(j * count for j, _, count in blocks)
        states = {(0, 0, 0): 1}
        later, end = largest, 0
    else:
        largest = m * blocks[0][0] if blocks else 0
        states = {(k, 0, 0): zero_weight**k for k in range(m + 1) if zero_weight**k}
        later, end = 0, m
    if largest > 4 * n + 1:
        raise OutOfRange(f"index sequences of size up to {largest} exceed 4n+1 = {4 * n + 1}")
    need = 2 * n + 2  # phi(n, c) vanishes unless size c >= need + 2 size d
    for j, w, count in blocks:
        # reach(u) = j (end - u) + later: the most size this block and the
        # later ones can still add once u parts are placed
        if fixed:
            end += count
            later -= j * count
        tables = [(k, *_transfer_table(j, w, k)) for k in ((count,) if fixed else range(m + 1))]
        nxt: dict[tuple[int, int, int], int] = {}
        get = nxt.get
        for (t, sc, sd), v in states.items():
            short = need + 2 * sd - sc - later - j * end
            for k, whole, entries in tables:
                u = t + k
                if u > m:
                    break
                lim = short + j * u  # need + 2 sd - sc - reach(u): the slack an entry needs
                f = v * comb(u, k)
                if whole and (not sc or lim <= 0):
                    key = (u, sc, sd)
                    nxt[key] = get(key, 0) + f * whole
                for slack, dc, dd, coef in entries:
                    if slack < lim:
                        break
                    ud = sd + dd
                    if ud >= n:
                        continue
                    key = (u, sc + dc, ud)
                    nxt[key] = get(key, 0) + f * coef
        states = nxt
    total = 0
    for (t, sc, sd), v in states.items():
        if t != m:
            continue
        if sc == 0:
            total += v
        elif sc % 2 == 0 and sc >= need + 2 * sd:
            total -= v
    return total


def _check_blocks(m: int, blocks) -> bool:
    """Whether the counts are fixed; PreconditionViolated unless the part
    sizes are distinct and >= 1 and the counts are all None or all
    non-negative and summing to m.  ``blocks`` is sorted widest first."""
    if not blocks:
        return False
    if blocks[-1][0] < 1:
        raise PreconditionViolated(f"part size {blocks[-1][0]} is below 1")
    for (j, _, _), (i, _, _) in zip(blocks, blocks[1:]):
        if j == i:
            raise PreconditionViolated(f"part size {j} appears in more than one block")
    counts = [count for _, _, count in blocks]
    nones = counts.count(None)
    if nones == len(counts):
        return False
    if nones:
        raise PreconditionViolated("block counts mix ints and None; give all or none")
    if min(counts) < 0:
        raise PreconditionViolated(f"block count {min(counts)} is negative")
    if sum(counts) != m:
        raise PreconditionViolated(f"block counts sum to {sum(counts)}, not m = {m}")
    return True


@lru_cache(maxsize=256)
def _transfer_table(j: int, w: int, k: int) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """How k parts of size j and weight w move a state (t, size c, size d).

    Returns the weight of the split b = k, which leaves c as it is, and the
    entries (slack j(e-d), size c step j(d+e), size d step j d, weight) of
    every other split k = b + d + e with a nonzero weight
    C(k,b) C(d+e,d) g_j(b) (-1)^(b+e) w^k, largest slack first.  Keyed by
    the block alone, never by n or by a partition.
    """
    g = [gaussian_moment_single(j, b) for b in range(k + 1)]
    entries = []
    for d in range(k + 1):
        for e in range(k + 1 - d):
            b = k - d - e
            coef = comb(k, b) * comb(d + e, d) * g[b] * (-1) ** (b + e) * w**k
            if (d or e) and coef:
                entries.append((j * (e - d), j * (d + e), j * d, coef))
    entries.sort(key=itemgetter(0), reverse=True)
    return g[k] * (-w) ** k, tuple(entries)


def moment_usp(n: int, a: Partition) -> int:
    """Exact Haar moment of prod_j tr(U^j)^{a_j} over USp(2n).

    Valid (and asserted) only for size(a) <= 4n+1; raises OutOfRange beyond,
    where no formula is claimed, and PreconditionViolated unless n is a
    non-negative integer.  The m!/prod_j a_j! index sequences that realise
    a are summed by ``moment_usp_sum`` and divided out.
    """
    n = nonnegative_int(n, "n")
    if a.size > 4 * n + 1:
        raise OutOfRange(f"partition size {a.size} exceeds 4n+1 = {4 * n + 1}")
    sequences = factorial(a.length)
    for _, k in a.items:
        sequences //= factorial(k)
    return moment_usp_sum(n, a.length, [(j, 1, k) for j, k in a.items]) // sequences


class FlaggedMoment(NamedTuple):
    """Moment value from a Gaussian model plus an in-model-range flag."""

    value: int
    valid: bool


def moment_usp_gaussian(n: int, a: Partition) -> FlaggedMoment:
    """Gaussian-model USp moment (-1)^len(a) g(a); exact iff size(a) <= 2n+1."""
    return FlaggedMoment((-1) ** a.length * gaussian_moment(a), a.size <= 2 * n + 1)


def moment_so_gaussian(n: int, a: Partition) -> FlaggedMoment:
    """Gaussian-model SO(n) moment g(a); exact iff size(a) <= n-1."""
    return FlaggedMoment(gaussian_moment(a), a.size <= n - 1)


def moment_u_gaussian(n: int, a: Partition, b: Partition) -> FlaggedMoment:
    """Gaussian-model U(n) moment prod_j delta_{a_j b_j} j^{a_j} a_j!.

    Exact iff size(a) + size(b) <= 2n.  ``a`` carries the tr(U^j) exponents
    and ``b`` the tr(U^-j) exponents.
    """
    valid = a.size + b.size <= 2 * n
    if a != b:
        return FlaggedMoment(0, valid)
    value = 1
    for j, m in a.items:
        value *= j**m * factorial(m)
    return FlaggedMoment(value, valid)


@dataclass(frozen=True)
class Pairing:
    """Partial pairing of the parts of a partition.

    For each part size j the indices {1..b_j} split into disjoint unordered
    pairs plus fixed points, with no fixed point allowed at odd j.
    """

    base: Partition
    pairs: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    fixed: tuple[tuple[int, tuple[int, ...]], ...]

    def pair_count(self, j: int) -> int:
        for part, ps in self.pairs:
            if part == j:
                return len(ps)
        return 0

    def weight(self) -> int:
        """prod_j j^(number of pairs at j)."""
        result = 1
        for j, ps in self.pairs:
            result *= j ** len(ps)
        return result


def _involutions(m: int, allow_fixed: bool) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """Partial pairings of {1..m}: (pairs, fixed); fixed empty unless allowed."""

    def rec(rest: tuple[int, ...]) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
        if not rest:
            yield ((), ())
            return
        first, others = rest[0], rest[1:]
        if allow_fixed:
            for pairs, fixed in rec(others):
                yield pairs, (first,) + fixed
        for idx in range(len(others)):
            partner = others[idx]
            remaining = others[:idx] + others[idx + 1 :]
            for pairs, fixed in rec(remaining):
                yield ((first, partner),) + pairs, fixed

    yield from rec(tuple(range(1, m + 1)))


def enumerate_pairings(b: Partition) -> Iterator[Pairing]:
    """All pairings of b, each exactly once, in deterministic order.

    Enumerates involutions independently per part size (pairings preserve the
    part size) and takes the cartesian product across the support.
    """
    per_size = []
    for j, m in b.items:
        options = list(_involutions(m, allow_fixed=j % 2 == 0))
        per_size.append((j, options))
    for combo in itertools.product(*(opts for _, opts in per_size)):
        pairs = tuple((j, combo[i][0]) for i, (j, _) in enumerate(per_size))
        fixed = tuple((j, combo[i][1]) for i, (j, _) in enumerate(per_size))
        yield Pairing(b, pairs, fixed)


def pairing_weight_sum(b: Partition) -> int:
    """Sum of pairing weights prod_j j^(pairs at j); equals gaussian_moment(b)."""
    return sum(p.weight() for p in enumerate_pairings(b))
