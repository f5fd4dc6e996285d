"""Integer partitions: enumeration, counting, conjugation, hook lengths.

Partitions of n index both the conjugacy classes and the irreducible
representations of the symmetric group S_n, so everything downstream is
driven by the enumeration order fixed here (reverse-lexicographic, from
(n) down to (1,...,1)).
"""

from __future__ import annotations

from operator import lt
from typing import Iterator

# Decimal strings of the parts serialize looks up instead of formatting.
# Sweep parts stay below 51 and Plancherel parts at n = 1000 below about
# 70; larger parts fall back to str.
_DIGITS = tuple(map(str, range(100)))


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition is the unique partition of 0.  Instances are
    immutable and hashable; ``n`` caches the sum of the parts.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts=()):
        parts = tuple(map(int, parts))
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts
        self.n = sum(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def serialize(self) -> str:
        """Bracketed comma-separated parts, e.g. ``[5,2]``."""
        parts = self.parts
        if parts and parts[0] >= len(_DIGITS):
            return "[" + ",".join(map(str, parts)) + "]"
        return "[" + ",".join([_DIGITS[v] for v in parts]) + "]"


def _trusted_partition(parts: tuple[int, ...], n: int) -> Partition:
    """Partition of n from a tuple already known to be positive and weakly decreasing.

    For parts built by the library's own walks and insertions; skips the
    checks of Partition.__init__, which would only confirm them.
    """
    lam = object.__new__(Partition)
    lam.parts = parts
    lam.n = n
    return lam


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n as a plain tuple, in reverse-lexicographic order.

    Algorithm ZS1 of Zoghbi and Stojmenovic: ``x[:m]`` is the current
    partition, ``x[h]`` its last part above 1 and every entry after
    ``x[h]`` is 1, so each step rewrites only ``x[h]`` and what follows.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:  # (..., 2, 1^t) -> (..., 1, 1, 1^t)
            m += 1
            x[h] = 1
            h -= 1
        else:  # decrement x[h] and refill the tail with parts of that size
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n in reverse-lexicographic order.

    Starts at (n), ends at (1,...,1); n = 0 yields exactly the empty
    partition.  The stream has length partition_count(n), which the test
    suite checks against the independent pentagonal recurrence.
    """
    yield from map(Partition, _partition_tuples(n))


_pcount = [1]  # dense table of p(0), p(1), ...


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, memoized densely.

    Independent of enumerate_partitions, so the two can cross-check
    each other.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        k = 1
        while True:
            g1 = m - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = _pcount[g1]
            g2 = g1 - k  # m - k(3k+1)/2
            if g2 >= 0:
                term += _pcount[g2]
            total += term if k % 2 == 1 else -term
            k += 1
        _pcount.append(total)
    return _pcount[n]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lambda'_j = #{i : lambda_i >= j}."""
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for v in lam.parts:
        for j in range(v):
            cols[j] += 1
    return Partition(cols)


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of each box: h(i,j) = lam_i - i + lam'_j - j + 1.

    Returned ragged matrix has the same shape as the diagram; every entry
    is at least 1 and the corner box (1,1) carries lam_1 + lam'_1 - 1.
    """
    conj = conjugate(lam).parts
    return [
        [lam.parts[i] - i + conj[j] - j - 1 for j in range(lam.parts[i])]
        for i in range(len(lam.parts))
    ]
