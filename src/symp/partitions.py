"""Partitions as finite multiplicity maps {part-size j: multiplicity a_j}.

Every moment formula in this package is indexed by such a partition.  The
representation is sparse because the linear-statistics sweeps use partitions
whose part sizes are huge (comparable to the matrix dimension) while the
support stays tiny.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from operator import index
from typing import Iterator, Mapping

from .errors import CapExceeded, NotDominated, ParseError

_TERM_RE = re.compile(r"^(\d+)\^(\d+)$")

DEFAULT_SIZE_CAP = 40


class Partition:
    """Immutable sparse partition; zero multiplicities are never stored."""

    __slots__ = ("_items", "_length", "_size")

    def __init__(self, parts: Mapping[int, int] | None = None):
        items = []
        length = size = 0
        if parts:
            for key in sorted(parts):
                try:
                    j, m = index(key), index(parts[key])
                except TypeError:
                    raise ValueError(f"invalid partition entry {key!r}:{parts[key]!r}: not an integer") from None
                if m == 0:
                    continue
                if j < 1 or m < 0:
                    raise ValueError(f"invalid partition entry {j}:{m}")
                items.append((j, m))
                length += m
                size += j * m
        self._items = tuple(items)
        self._length = length
        self._size = size

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
            raise NotDominated(f"{other} is not dominated by {self}")
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
    support = a.support
    ranges = [range(m + 1) for _, m in a.items]
    for mults in itertools.product(*ranges):
        yield Partition({j: m for j, m in zip(support, mults) if m})


def partitions_of_size_exactly(k: int) -> Iterator[Partition]:
    """Partitions of size exactly k, largest part first ordering."""

    def descend(remaining: int, max_part: int, acc: list[int]) -> Iterator[list[int]]:
        if remaining == 0:
            yield acc
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from descend(remaining - part, part, acc + [part])

    for shape in descend(k, k if k else 1, []):
        mults: dict[int, int] = {}
        for part in shape:
            mults[part] = mults.get(part, 0) + 1
        yield Partition(mults)


def partitions_of_size_at_most(n: int) -> Iterator[Partition]:
    """All partitions with size <= n, by ascending size then shape order."""
    if n > DEFAULT_SIZE_CAP:
        raise CapExceeded(f"size bound {n} exceeds cap {DEFAULT_SIZE_CAP}")
    for k in range(n + 1):
        yield from partitions_of_size_exactly(k)
