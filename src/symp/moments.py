"""Closed-form trace moments for the classical compact groups.

The central object is ``moment_usp(n, a)``, the exact value of
``int_{USp(2n)} prod_j tr(U^j)^{a_j} dU`` for partitions with
``size(a) <= 4n+1``:

    moment_usp(n, a) = (-1)^len(a) * sum_{b <= a} C(a,b) g(b) phi(n, a-b)

where ``g`` is the moment of the shifted-Gaussian model (``gaussian_moment``
here) and ``phi`` is the finite-n correction (``nongaussian_correction``).

The sum is evaluated by a size-indexed dynamic programme: the defining
sum at every size, and the Haar moment where the formula is proved
(ROADMAP.md records it holding through 4n+5 and failing at 4n+6).
Writing c = a - b and expanding phi's inner sum over
d <= c, ``C(a,b) C(c,d) = prod_j a_j!/(b_j! d_j! e_j!)`` with e = c - d, so
every factor splits per part size except phi's weight, which depends only on
(size c, size d): 1 for empty c, -1 for even size c with
size d <= size c/2 - n - 1, else 0.  The programme runs over the part sizes
and drops a state as soon as that weight can no longer be nonzero.  It
has two loops.  ``moment_usp``, the only caller with fixed counts, runs
``_fixed_sum``: every state has placed the same parts, so the states are
(size c, size d) alone and the result is one moment.  ``moment_usp_sum``
takes ``(j, w)`` blocks with every count free, as :mod:`symp.linstat`
needs, and sums over all index sequences of length m; its states add the
parts placed, t.
Each part size but the smallest makes one pass over the states: a
memoized transfer table, keyed only by (j, w, k), lists every split k = b
+ d + e of its k parts as a step (size c += j(d+e), size d += j d) with its
integer weight, sorted by how much the step adds to the slack size c +
reach - (2n+2) - 2 size d, where reach is what the parts still to come can
add (each at most the next part size, as the sizes come widest first), so
a state's pass stops at the first step that leaves phi no chance.  The
smallest part size closes the sum instead (``_close``): with reach 0 a step
lands in phi's nonzero set exactly when it passes that slack test and
makes size c even, so each state adds a prefix sum of its block's steps of
one parity, found by bisecting the sorted slacks.  The pass and the close
read two views of the same sorted steps, and one cache holds both.  In the
Gaussian range size(a) <= 2n+1 only the empty-c state survives, which is
how the formula collapses to g(a).  ``moment_usp`` does not run the
programme at odd size(a): -I is central in USp(2n), so U -> -U keeps Haar
measure and tr((-U)^j) = (-1)^j tr(U^j) makes every odd-size moment 0, and
the defining sum vanishes term by term as well (g(b) = 0 at odd size b and
phi(n, c) = 0 at odd size c, and one of the two is odd).  The programme
itself still computes that 0 at every odd size, which the tests check.
Everything in this module is exact integer arithmetic; the only rounding
anywhere lives in the numerical oracles of :mod:`symp.haar`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import OutOfRange, PreconditionViolated, integer, nonnegative_int
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
    (0 when the constraint set is empty).  PreconditionViolated unless n is
    a non-negative integer.
    """
    n = nonnegative_int(n, "n")
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


def moment_usp_sum(n: int, m: int, blocks, zero_weight: int = 0) -> int:
    """Sum over index sequences of length m of the weighted USp moments.

    ``blocks`` lists ``(j, w)`` for distinct integer part sizes j >= 1 and
    integer weights w; a sequence places any number k_j of its m indices on
    j and the remaining k_0 on the index 0, whose trace is the integer
    constant ``zero_weight``.  Returns

        sum_k m!/(k_0! prod_j k_j!) zero_weight^k_0 prod_j w^k_j moment_usp(n, k)

    with moment_usp(n, k) the defining sum at every size: a Haar moment
    only where size(k) <= 4n+1, which the callers that promise one check
    themselves.

    Each k_j splits as b + d + e (b the Gaussian part, c = d + e the
    correction part, d the inner sum of phi), and the weight
    ``C(k,b) C(d+e,d) g_j(b) (-1)^(b+e) w^k`` factors per j.  Only phi
    couples the part sizes, through (size c, size d).  One pass over the
    blocks, widest first, runs over states (parts placed t, size c, size d):
    each block but the last moves a state by each entry (j(d+e), j d,
    weight) of its transfer table for every k with t + k <= m, times
    C(t+k, k) for the interleaving.  A state with c nonempty survives only
    while size c, plus all the parts still to place could add, reaches
    2n+2+2 size d; as the blocks come widest first, each part left adds at
    most the next block's part size.  The last block takes the k = m - t
    parts left, times C(m, k), and ``_close`` sums phi over what it makes.
    The one moment of a fixed partition is ``_fixed_sum``, which
    ``moment_usp`` calls.
    """
    n = nonnegative_int(n, "n")
    m = nonnegative_int(m, "m")
    zero_weight = integer(zero_weight, "zero_weight")
    # widest part first: what the remaining blocks can still add to size c
    # then shrinks fastest, and so does the set of surviving states
    blocks = sorted(
        [(integer(j, "part size"), integer(w, "block weight")) for j, w in blocks], key=itemgetter(0), reverse=True
    )
    if not blocks:
        return zero_weight**m
    if blocks[-1][0] < 1:
        raise PreconditionViolated(f"part size {blocks[-1][0]} is below 1")
    for (j, _), (i, _) in zip(blocks, blocks[1:]):
        if j == i:
            raise PreconditionViolated(f"part size {j} appears in more than one block")
    need = 2 * n + 2  # phi(n, c) vanishes unless size c >= need + 2 size d
    states = {(k, 0, 0): zero_weight**k for k in range(m + 1) if zero_weight**k}
    for (j, w), (wide, _) in zip(blocks, blocks[1:]):
        tables = [(k, *_transfer_table(j, w, k)) for k in range(m + 1)]
        nxt: dict[tuple[int, int, int], int] = {}
        get = nxt.get
        for (t, sc, sd), v in states.items():
            short = need + 2 * sd - sc - wide * m
            for k, whole, entries, _ in tables:
                u = t + k
                if u > m:
                    break
                # need + 2 sd - sc - wide (m - u): the slack an entry needs, as
                # each of the m - u parts left adds at most wide, the next
                # block's part size
                lim = short + wide * u
                f = v * comb(u, k)
                if whole and (not sc or lim <= 0):
                    key = (u, sc, sd)
                    nxt[key] = get(key, 0) + f * whole
                for slack, dc, dd, coef in entries:
                    if slack < lim:
                        break
                    key = (u, sc + dc, sd + dd)
                    nxt[key] = get(key, 0) + f * coef
        states = nxt
    j, w = blocks[-1]
    layers: list[list[tuple[tuple[int, int], int]]] = [[] for _ in range(m + 1)]
    for (t, sc, sd), v in states.items():
        layers[t].append(((sc, sd), v))
    return _close(need, j, w, [(m - t, comb(m, t), layer) for t, layer in enumerate(layers)])


def _fixed_sum(need: int, blocks, size: int) -> int:
    """The defining sum of the moment of one partition: ``blocks`` lists
    (j, k) for each part size j with k parts, widest first, ``size`` is the
    partition's size, sum of j k over the blocks, and phi(n, c) needs size
    c >= need + 2 size d.

    Every state has then placed the same parts, so states are keyed by
    (size c, size d) alone, with no interleaving factor.  Once block j is
    placed the later blocks can still add ``later`` to size c, so an entry
    of its transfer table must gain the slack ``lim = need - later + 2 sd -
    sc``; the entries come largest slack j(e-d) first and the first one that
    falls short ends the state's pass.  The entry b = k, which leaves c as
    it is, is kept apart so that a state with empty c always survives.  The
    last block is not run as a pass: ``_close`` sums phi over what it makes.
    """
    if not blocks:
        return 1
    later = size
    states = {(0, 0): 1}
    for j, k in blocks[:-1]:
        later -= j * k
        whole, entries, _ = _transfer_table(j, 1, k)
        base = need - later
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (sc, sd), v in states.items():
            lim = base + 2 * sd - sc
            if whole and (not sc or lim <= 0):
                nxt[sc, sd] = get((sc, sd), 0) + v * whole
            for slack, dc, dd, coef in entries:
                if slack < lim:
                    break
                key = (sc + dc, sd + dd)
                nxt[key] = get(key, 0) + v * coef
        states = nxt
    j, k = blocks[-1]
    return _close(need, j, 1, [(k, 1, states.items())])


def _close(need: int, j: int, w: int, groups) -> int:
    """Sum of f v times phi's weight over every state that the closing
    block of part size j and weight w makes from ``groups``: (k, f, states)
    with k the parts the block takes from each ((size c, size d), v) in
    states and f a factor common to the group.

    phi's weight is 1 for empty c and -1 for even size c >= need + 2 size d.
    With no block after it, a step (j(d+e), j d) reaches the second set
    exactly when its slack j(e-d) >= lim = need + 2 size d - size c, and
    lands on an even size c when j(d+e) has the parity of size c.  So a
    state with c nonempty gives -v times a prefix sum of the close view of
    ``_transfer_table``, found by bisecting on -lim.  Empty c has lim = need
    > 0, which the step b = k (slack 0) does not reach; that step adds v
    times its weight instead.
    """
    total = 0
    for k, f, states in groups:
        whole, _, (rises, even, odd) = _transfer_table(j, w, k)
        part = 0
        for (sc, sd), v in states:
            part -= v * (odd if sc & 1 else even)[bisect_right(rises, sc - need - 2 * sd)]
            if not sc:
                part += v * whole
        total += f * part
    return total


@lru_cache(maxsize=256)
def _transfer_table(
    j: int, w: int, k: int
) -> tuple[int, tuple[tuple[int, int, int, int], ...], tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """How k parts of size j and weight w move a state's (size c, size d).

    Every split k = b + d + e with a nonzero weight C(k,b) C(d+e,d) g_j(b)
    (-1)^(b+e) w^k is a step (slack j(e-d), size c step j(d+e), size d step
    j d, weight), largest slack first.  Returns the weight of the split
    b = k, which leaves c as it is, and two views of the steps: for a pass,
    every step but b = k; for ``_close``, the negated slacks of every step
    in ascending order and the prefix sums of their weights over the steps
    with an even and with an odd size c step.  Keyed by the block alone,
    never by n or by a partition.
    """
    g = [gaussian_moment_single(j, b) for b in range(k + 1)]
    steps = []
    for d in range(k + 1):
        for e in range(k + 1 - d):
            b = k - d - e
            coef = comb(k, b) * comb(d + e, d) * g[b] * (-1) ** (b + e) * w**k
            if coef:
                steps.append((j * (e - d), j * (d + e), j * d, coef))
    steps.sort(key=itemgetter(0), reverse=True)
    rises, even, odd = [], [0], [0]
    for slack, dc, _, coef in steps:
        rises.append(-slack)
        even.append(even[-1] + (0 if dc & 1 else coef))
        odd.append(odd[-1] + (coef if dc & 1 else 0))
    # j >= 1, so b = k is the only step that leaves size c as it is
    entries = tuple(step for step in steps if step[1])
    return g[k] * (-w) ** k, entries, (tuple(rises), tuple(even), tuple(odd))


def moment_usp(n: int, a: Partition) -> int:
    """Exact Haar moment of prod_j tr(U^j)^{a_j} over USp(2n).

    Valid (and asserted) only for size(a) <= 4n+1; raises OutOfRange beyond,
    where no formula is claimed, odd sizes included, and PreconditionViolated
    unless n is a non-negative integer.  An odd size gives 0 at once: -I is
    central in USp(2n), so U -> -U keeps Haar measure and flips the sign of
    the product, and the defining sum vanishes term by term too, since every
    split b + c of an odd size has g(b) = 0 or phi(n, c) = 0.  Otherwise the
    defining sum runs through ``_fixed_sum`` over a's part sizes, widest
    first, with states (size c, size d): one moment, not the sum over a's
    index sequences, so nothing is divided out.
    """
    n = nonnegative_int(n, "n")
    if a.size > 4 * n + 1:
        raise OutOfRange(f"partition size {a.size} exceeds 4n+1 = {4 * n + 1}")
    if a.size & 1:
        return 0
    return _fixed_sum(2 * n + 2, a.items[::-1], a.size)


class FlaggedMoment(NamedTuple):
    """Moment value from a Gaussian model plus an in-model-range flag."""

    value: int
    valid: bool


def moment_usp_gaussian(n: int, a: Partition) -> FlaggedMoment:
    """Gaussian-model USp moment (-1)^len(a) g(a); exact iff size(a) <= 2n+1.

    PreconditionViolated unless n is a non-negative integer."""
    n = nonnegative_int(n, "n")
    return FlaggedMoment((-1) ** a.length * gaussian_moment(a), a.size <= 2 * n + 1)


def moment_so_gaussian(n: int, a: Partition) -> FlaggedMoment:
    """Gaussian-model SO(n) moment g(a); exact iff size(a) <= n-1.

    PreconditionViolated unless n is a non-negative integer."""
    n = nonnegative_int(n, "n")
    return FlaggedMoment(gaussian_moment(a), a.size <= n - 1)


def moment_u_gaussian(n: int, a: Partition, b: Partition) -> FlaggedMoment:
    """Gaussian-model U(n) moment prod_j delta_{a_j b_j} j^{a_j} a_j!.

    Exact iff size(a) + size(b) <= 2n.  ``a`` carries the tr(U^j) exponents
    and ``b`` the tr(U^-j) exponents.  PreconditionViolated unless n is a
    non-negative integer.
    """
    n = nonnegative_int(n, "n")
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
