import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symp.errors import CapExceeded, NotDominated, ParseError
from symp.partitions import (
    Partition,
    partitions_of_size_at_most,
    partitions_of_size_exactly,
    sub_partitions,
)

parts_dicts = st.dictionaries(st.integers(1, 9), st.integers(1, 4), max_size=4)


def brute_partition_count(k):
    """Independent oracle: number of partitions of k by descending-part recursion."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(remaining, max_part), 0, -1))

    return count(k, k if k else 1)


def test_length_and_size():
    assert Partition().length == 0 and Partition().size == 0
    assert Partition({1: 2}).length == 2 and Partition({1: 2}).size == 2
    a = Partition({1: 2, 3: 1})
    assert a.length == 3 and a.size == 5


def test_length_and_size_after_arithmetic():
    a = Partition({2: 3, 5: 1}) - Partition({2: 1})
    assert (a.length, a.size) == (3, 9)
    assert a == Partition({5: 1, 2: 2}) and hash(a) == hash(Partition({2: 2, 5: 1}))
    assert repr(a) == "Partition({2: 2, 5: 1})"
    assert Partition.parse(a.format()).size == 9


def test_leq():
    assert Partition() <= Partition({1: 4})
    assert Partition({1: 2}) <= Partition({1: 4})
    assert not Partition({2: 1}) <= Partition({1: 4})


def test_subtract():
    assert Partition({1: 4}) - Partition({1: 2}) == Partition({1: 2})
    assert Partition({1: 2, 2: 1}) - Partition({2: 1}) == Partition({1: 2})
    a = Partition({2: 3, 5: 1})
    assert a - a == Partition()
    with pytest.raises(NotDominated):
        Partition({1: 1}) - Partition({2: 1})


def test_binomial():
    assert Partition({1: 4}).binomial(Partition({1: 2})) == 6
    assert Partition({3: 2, 7: 1}).binomial(Partition()) == 1
    assert Partition({1: 2, 2: 2}).binomial(Partition({1: 1, 2: 1})) == 4
    assert Partition({1: 1}).binomial(Partition({2: 1})) == 0  # not dominated


def test_sub_partitions_examples():
    assert list(sub_partitions(Partition({1: 1}))) == [Partition(), Partition({1: 1})]
    assert len(list(sub_partitions(Partition({1: 2})))) == 3
    assert len(list(sub_partitions(Partition({1: 1, 2: 1})))) == 4


def test_partition_counts():
    assert len(list(partitions_of_size_exactly(4))) == brute_partition_count(4) == 5
    assert len(list(partitions_of_size_exactly(5))) == brute_partition_count(5) == 7
    assert list(partitions_of_size_at_most(0)) == [Partition()]
    for k in range(9):
        got = sum(1 for p in partitions_of_size_at_most(8) if p.size == k)
        assert got == brute_partition_count(k)


def test_cap():
    with pytest.raises(CapExceeded):
        list(partitions_of_size_at_most(41))


def test_parse_format_examples():
    assert Partition.parse("1^2 3^1") == Partition({1: 2, 3: 1})
    assert Partition.parse("") == Partition()
    for bad in ["2^0", "1^1 1^2", "3^1 2^1", "x", "2", "0^3"]:
        with pytest.raises(ParseError):
            Partition.parse(bad)


def test_parse_reports_zero_part_size():
    for text in ["0^1", "1^1 0^2"]:
        with pytest.raises(ParseError, match="zero part size or multiplicity"):
            Partition.parse(text)


@given(parts_dicts)
def test_parse_format_roundtrip(d):
    a = Partition(d)
    assert Partition.parse(a.format()) == a


@given(parts_dicts, parts_dicts)
def test_size_additivity(d1, d2):
    a, b = Partition(d1), Partition(d2)
    if b <= a:
        assert (a - b).size + b.size == a.size
        assert (a - b).length + b.length == a.length


@given(parts_dicts)
def test_binomial_row_sum(d):
    a = Partition(d)
    total = sum(a.binomial(b) for b in sub_partitions(a))
    expected = 1
    for _, m in a.items:
        expected *= 2**m
    assert total == expected


@given(parts_dicts)
def test_sub_partition_cardinality(d):
    a = Partition(d)
    subs = list(sub_partitions(a))
    expected = 1
    for _, m in a.items:
        expected *= m + 1
    assert len(subs) == expected
    assert len(set(subs)) == expected
    assert all(b <= a for b in subs)


def test_canonical_form():
    assert Partition({1: 0, 2: 3}) == Partition({2: 3})
    assert hash(Partition({2: 3})) == hash(Partition({1: 0, 2: 3}))
    with pytest.raises(ValueError):
        Partition({0: 1})
    with pytest.raises(ValueError):
        Partition({2: -1})


def test_entries_must_be_integers():
    for parts, entry in [({1: 2.9}, "1:2.9"), ({1.5: 1}, "1.5:1"), ({2.0: 0}, "2.0:0"), ({1: "2"}, "1:'2'")]:
        with pytest.raises(ValueError, match=f"invalid partition entry {re.escape(entry)}: not an integer"):
            Partition(parts)
    a = Partition({np.int64(2): np.int32(3), 1: np.int64(1)})  # numpy integers pass, stored as int
    assert a.items == ((1, 1), (2, 3)) and all(type(v) is int for item in a.items for v in item)
