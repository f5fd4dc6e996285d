"""Partition enumeration, counting, conjugation, hooks."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repstat.partitions import (
    Partition,
    _trusted_partition,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    partition_count,
)
from repstat.symstats import sweep


def _partitions_brute(n, max_part=None):
    """Oracle: recursive enumeration, independent of the iterative stream."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_brute(n - first, first):
            yield (first,) + rest


partitions_st = st.integers(0, 18).flatmap(
    lambda n: st.sampled_from([p.parts for p in enumerate_partitions(n)]).map(Partition)
)


class TestPartitionType:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_rejects_non_integral_parts(self):
        # Entries are taken by operator.index, never truncated by int().
        for bad in ([2.7, 1], [2.0], ["3"], [Fraction(2, 1)]):
            with pytest.raises(TypeError):
                Partition(bad)
        assert Partition([2, True]) == (2, 1)
        assert all(type(v) is int for v in Partition([True, True]))

    def test_empty_is_partition_of_zero(self):
        assert Partition().n == 0
        assert Partition().parts == ()

    def test_serialize_round_trip(self):
        lam = Partition([5, 2])
        assert lam.serialize() == "[5,2]"

    def test_serialize_parts_past_digit_table(self):
        # Parts from 100 up are formatted with str rather than looked up.
        assert Partition([100, 99, 10, 1]).serialize() == "[100,99,10,1]"
        assert Partition([12345]).serialize() == "[12345]"
        assert Partition().serialize() == "[]"

    def test_is_a_slotted_tuple(self):
        assert issubclass(Partition, tuple)
        assert not hasattr(Partition([5, 2]), "__dict__")

    def test_equals_its_plain_tuple(self):
        lam = Partition([5, 2])
        assert lam == (5, 2) and (5, 2) == lam
        assert hash(lam) == hash((5, 2))

    def test_slice_is_plain_tuple(self):
        head = Partition([3, 2, 1])[1:]
        assert type(head) is tuple and head == (2, 1)

    @pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_copies_go_through_validation(self, dup):
        back = dup(Partition([5, 2]))
        assert type(back) is Partition and back == (5, 2)
        # A round trip rebuilds through __new__, which refuses unchecked parts.
        with pytest.raises(ValueError, match="weakly decreasing"):
            dup(_trusted_partition((1, 2)))

    def test_sweep_records_are_their_own_parts(self):
        for n in range(1, 16):
            for rec in sweep(n):
                assert rec.lam.parts is rec.lam
                assert rec.lam.n == n


class TestEnumerate:
    def test_zero(self):
        assert [p.parts for p in enumerate_partitions(0)] == [()]

    def test_five_reverse_lex(self):
        expected = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
        assert [p.parts for p in enumerate_partitions(5)] == expected

    def test_matches_brute_force(self):
        for n in range(0, 13):
            assert [p.parts for p in enumerate_partitions(n)] == list(_partitions_brute(n))

    def test_length_twenty(self):
        assert sum(1 for _ in enumerate_partitions(20)) == 627

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_lazy(self):
        # p(10000) has over a hundred digits: only a lazy stream returns these.
        stream = enumerate_partitions(10_000)
        assert next(stream) == (10_000,)
        assert next(stream) == (9999, 1)


class TestPartitionCount:
    def test_small_values(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7
        assert partition_count(20) == 627

    def test_agrees_with_enumeration(self):
        # Two independent algorithms over the full working range.
        for n in range(0, 41):
            assert partition_count(n) == sum(1 for _ in enumerate_partitions(n))


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition([5, 2])).parts == (2, 2, 1, 1, 1)
        assert conjugate(Partition([3, 1, 1])).parts == (3, 1, 1)
        assert conjugate(Partition()).parts == ()

    def test_involution_all_n_up_to_25(self):
        for n in range(0, 26):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam

    @given(partitions_st)
    def test_involution_property(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions_st)
    def test_transpose_counts(self, lam):
        mu = conjugate(lam)
        assert mu.n == lam.n
        if lam.parts:
            assert len(mu.parts) == lam.parts[0]


class TestHookLengths:
    def test_example_five_two(self):
        assert hook_lengths(Partition([5, 2])) == [[6, 5, 3, 2, 1], [2, 1]]

    def test_single_box(self):
        assert hook_lengths(Partition([1])) == [[1]]

    def test_two_two(self):
        assert hook_lengths(Partition([2, 2])) == [[3, 2], [2, 1]]

    def test_corner_entry(self):
        for n in range(1, 14):
            for lam in enumerate_partitions(n):
                hooks = hook_lengths(lam)
                assert hooks[0][0] == lam.parts[0] + len(lam.parts) - 1
                assert all(h >= 1 for row in hooks for h in row)

    def test_multiset_invariant_under_conjugation(self):
        for n in range(1, 16):
            for lam in enumerate_partitions(n):
                mine = sorted(h for row in hook_lengths(lam) for h in row)
                theirs = sorted(h for row in hook_lengths(conjugate(lam)) for h in row)
                assert mine == theirs

    def test_product_divides_factorial(self):
        for n in range(1, 21):
            fact = math.factorial(n)
            for lam in enumerate_partitions(n):
                prod = 1
                for row in hook_lengths(lam):
                    for h in row:
                        prod *= h
                assert fact % prod == 0
