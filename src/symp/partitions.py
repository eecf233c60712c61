"""Partitions as finite multiplicity maps {part-size j: multiplicity a_j}.

Every moment formula in this package is indexed by such a partition.  The
representation is sparse because the linear-statistics sweeps use partitions
whose part sizes are huge (comparable to the matrix dimension) while the
support stays tiny.

A Partition from outside input (a mapping, ``parse``, ``__sub__``) passes
through the validating constructor.  The enumerators here build theirs with
``Partition._trusted`` instead, from items they know to be canonical.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from typing import Iterator, Mapping

from .errors import BudgetExceeded, ParseError, PreconditionViolated, integer

_TERM_RE = re.compile(r"^(\d+)\^(\d+)$")

DEFAULT_SIZE_CAP = 40


class Partition:
    """Immutable sparse partition; zero multiplicities are never stored."""

    __slots__ = ("_items", "_length", "_size")

    def __init__(self, parts: Mapping[int, int] | None = None):
        items = []
        length = size = 0
        if parts:
            for key, value in parts.items():
                try:
                    j, m = integer(key, "part size"), integer(value, "multiplicity")
                except PreconditionViolated:
                    raise PreconditionViolated(f"invalid partition entry {key!r}:{value!r}: not an integer") from None
                if m == 0:
                    continue
                if j < 1 or m < 0:
                    raise PreconditionViolated(f"invalid partition entry {j}:{m}")
                items.append((j, m))
                length += m
                size += j * m
        items.sort()
        self._items = tuple(items)
        self._length = length
        self._size = size

    @classmethod
    def _trusted(cls, items: tuple[tuple[int, int], ...], length: int, size: int) -> "Partition":
        """The partition with these canonical items, unchecked: part sizes
        strictly ascending ints >= 1, multiplicities ints >= 1, ``length``
        their sum and ``size`` the sum of j * a_j.  For the enumerators
        below, which build only such items; outside input goes through
        ``__init__``."""
        self = object.__new__(cls)
        self._items = items
        self._length = length
        self._size = size
        return self

    @property
    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    @property
    def length(self) -> int:
        return self._length

    @property
    def size(self) -> int:
        return self._size

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __le__(self, other: "Partition") -> bool:
        """Componentwise domination: self_j <= other_j for all j."""
        theirs = dict(other._items)
        return all(m <= theirs.get(j, 0) for j, m in self._items)

    def __sub__(self, other: "Partition") -> "Partition":
        if not other <= self:
            raise PreconditionViolated(f"{other} is not dominated by {self}")
        out = dict(self._items)
        for j, m in other._items:
            out[j] -= m
        return Partition(out)

    def binomial(self, other: "Partition") -> int:
        """Product over j of C(self_j, other_j); 0 unless other <= self."""
        mine = dict(self._items)
        result = 1
        for j, m in other._items:
            result *= comb(mine.get(j, 0), m)
        return result

    def format(self) -> str:
        return " ".join(f"{j}^{m}" for j, m in self._items)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse canonical text "j^m j^m ..." with strictly increasing j."""
        parts: dict[int, int] = {}
        last = 0
        for token in text.split():
            match = _TERM_RE.match(token)
            if not match:
                raise ParseError(f"bad partition term {token!r}")
            j, m = int(match.group(1)), int(match.group(2))
            if j < 1 or m < 1:
                raise ParseError(f"zero part size or multiplicity in {token!r}")
            if j <= last:
                raise ParseError(f"part sizes must strictly increase, got {token!r}")
            parts[j] = m
            last = j
        return cls(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Partition({dict(self._items)!r})"


def sub_partitions(a: Partition) -> Iterator[Partition]:
    """All b <= a, exactly prod_j (a_j + 1) of them, in lexicographic order
    of the multiplicity vector (ordered by part size, then multiplicity)."""
    items = a.items
    for mults in itertools.product(*[range(m + 1) for _, m in items]):
        sub = tuple((j, m) for (j, _), m in zip(items, mults) if m)
        yield Partition._trusted(sub, sum(mults), sum(j * m for j, m in sub))


def partitions_of_size_exactly(k: int) -> Iterator[Partition]:
    """Partitions of size exactly k, largest part first: in reverse
    lexicographic order of the parts listed largest first, so k comes
    first and 1^k last.  Nothing when k < 0; PreconditionViolated unless k
    is an integer (``bool`` refused).

    The parts are kept as a stack of (part, multiplicity) pairs, largest
    part at the bottom (Zoghbi and Stojmenovic's ZS1, in multiplicity
    form).  The successor takes the smallest part j > 1 together with all
    the 1s, removes one copy of j and refills the freed total with as many
    parts j - 1 as fit plus one remainder part; once only 1s are left there
    is none.  A step costs O(1) amortised; read from the top, the stack is
    already the canonical items, so each partition is built unchecked.
    """
    k = integer(k, "size")
    if k < 0:
        return
    trusted = Partition._trusted
    if k == 0:
        yield trusted((), 0, 0)
        return
    stack = [(k, 1)]
    length = 1
    while True:
        yield trusted(tuple(reversed(stack)), length, k)
        free = 0
        if stack[-1][0] == 1:
            free = stack.pop()[1]
            length -= free
            if not stack:
                return
        j, m = stack.pop()
        if m > 1:
            stack.append((j, m - 1))
        q, r = divmod(free + j, j - 1)
        stack.append((j - 1, q))
        length += q - 1
        if r:
            stack.append((r, 1))
            length += 1


def partitions_of_size_at_most(n: int) -> Iterator[Partition]:
    """All partitions with size <= n, by ascending size then shape order.
    Nothing when n < 0; PreconditionViolated unless n is an integer,
    BudgetExceeded when n exceeds DEFAULT_SIZE_CAP."""
    n = integer(n, "size bound")
    if n > DEFAULT_SIZE_CAP:
        raise BudgetExceeded(f"size bound {n} exceeds cap {DEFAULT_SIZE_CAP}")
    for k in range(n + 1):
        yield from partitions_of_size_exactly(k)
