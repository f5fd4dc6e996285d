"""Integer partitions: enumeration, counting, conjugation, hook lengths.

Partitions of n index both the conjugacy classes and the irreducible
representations of the symmetric group S_n, so everything downstream is
driven by the enumeration order fixed here (reverse-lexicographic, from
(n) down to (1,...,1)).

A Partition is a validated tuple, equal to the plain tuple of its parts;
_trusted_partition wraps parts weakly decreasing by construction unchecked.
"""

from __future__ import annotations

from operator import index, lt
from typing import Iterable, Iterator

# Decimal strings of the parts serialize looks up instead of formatting.
# Sweep parts stay below 51 and Plancherel parts at n = 1000 below about
# 70; larger parts fall back to str.
_DIGITS = tuple(map(str, range(100)))


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition is the unique partition of 0.  A Partition is the
    tuple of its parts, validated once on construction: it equals, hashes
    and slices like that plain tuple.  ``n`` is the sum of the parts and
    ``parts`` the partition itself.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(index, parts))
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return tuple.__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def parts(self) -> Partition:
        return self

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def serialize(self) -> str:
        """Bracketed comma-separated parts, e.g. ``[5,2]``."""
        if self and self[0] >= len(_DIGITS):
            return "[" + ",".join(map(str, self)) + "]"
        return "[" + ",".join([_DIGITS[v] for v in self]) + "]"


def _trusted_partition(parts: Iterable[int]) -> Partition:
    """Partition from parts that are positive and weakly decreasing by construction.

    For parts built by the library's own walks and insertions; skips the
    checks of Partition.__new__, which would only confirm them.
    """
    return tuple.__new__(Partition, parts)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n in reverse-lexicographic order.

    Starts at (n), ends at (1,...,1); n = 0 yields exactly the empty
    partition.  A depth-first walk appends parts no larger than the last
    one and pops the largest next part first.  The stream has length
    partition_count(n), which the test suite checks against the
    independent pentagonal recurrence.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    stack = [((), n)]
    while stack:
        parts, rest = stack.pop()
        if not rest:
            yield Partition(parts)
            continue
        top = min(parts[-1], rest) if parts else rest
        stack.extend(((*parts, v), rest - v) for v in range(1, top + 1))


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence over p(0), ..., p(n).

    The table lives only for the call.  Independent of
    enumerate_partitions, so the two can cross-check each other.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = m - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = p[g1]
            g2 = g1 - k  # m - k(3k+1)/2
            if g2 >= 0:
                term += p[g2]
            total += term if k % 2 == 1 else -term
            k += 1
        p.append(total)
    return p[n]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lambda'_j = #{i : lambda_i >= j}."""
    if not lam:
        return Partition()
    cols = [0] * lam[0]
    for v in lam:
        for j in range(v):
            cols[j] += 1
    return Partition(cols)


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of each box: h(i,j) = lam_i - i + lam'_j - j + 1.

    Returned ragged matrix has the same shape as the diagram; every entry
    is at least 1 and the corner box (1,1) carries lam_1 + lam'_1 - 1.
    """
    conj = conjugate(lam)
    return [
        [lam[i] - i + conj[j] - j - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]
