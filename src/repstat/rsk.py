"""Robinson-Schensted insertion and seeded Plancherel sampling.

The shape of the insertion tableau of a uniform random permutation of n
is Plancherel-distributed over partitions of n, which turns a permutation
sampler into a Plancherel sampler.

Randomness contract (version 1, stable across releases): the generator is
splitmix64; sample index k of a run with seed s uses the substream whose
initial internal state is mix(s) XOR mix(k+1), where mix is the splitmix64
output finalizer.  Permutations are drawn by a Fisher-Yates shuffle whose
bounded draws use unbiased rejection sampling.  Identical (seed, k) gives
an identical permutation in any conforming implementation, so the sample
range can be split across workers without changing the stream.

The n - 1 outputs a shuffle of n needs are computed lane-parallel, one
big-int operation per finalizer step over all of them (SplitMix64.take).
That is only a faster way to compute the same stream: take and next_u64
share one finalizer, _mix64, so the contract is written out once and its
version is unchanged.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from functools import lru_cache
from itertools import chain
from math import factorial
from typing import Iterator

from .partitions import Partition, _trusted_partition
from .errors import _check_cap
from .symstats import dimension, ln_big

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest n, and largest n * count, that sample_plancherel accepts.  On a
# shared 2-CPU Xeon with Python 3.11 one sample takes about 4.5 ms at
# n = 1000 and 0.18 s at n = 10000, so a full-size request runs for
# roughly 5 to 20 s.
MAX_PLANCHEREL_N = 10_000
MAX_PLANCHEREL_CELLS = 1_000_000


def _mix64(z: int, mask: int) -> int:
    """splitmix64 output finalizer (Steele-Lea-Flood) of z, every step under mask.

    _MASK64 finalizes one value.  A lane mask from _lanes finalizes every
    lane of z at once and keeps each shift and product out of the next lane.
    """
    z &= mask
    z ^= (z >> 30) & mask
    z = (z * _MIX1) & mask
    z ^= (z >> 27) & mask
    z = (z * _MIX2) & mask
    return z ^ ((z >> 31) & mask)


@lru_cache(maxsize=1)
def _lanes(count: int) -> tuple[int, int, int, struct.Struct]:
    """Constants for `count` 128-bit lanes packed into one int.

    Lane k (bits 128k to 128k + 127) of the three ints holds 1, 2^64 - 1
    and (k + 1) * GAMMA.  The Struct reads the low 64 bits of every lane
    from little-endian bytes, so the lanes come out in order on any host.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\0") * count, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")
    index = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(1, count + 1)), "little")
    return ones, mask, _GAMMA * index, struct.Struct("<" + "Q8x" * count)


class SplitMix64:
    """64-bit splitmix64 stream: state += GAMMA, output = mix(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state, _MASK64)

    def take(self, count: int) -> tuple[int, ...]:
        """The next `count` outputs of next_u64, computed lane-parallel.

        Each 64-bit state sits in its own 128-bit lane of one int, and
        _mix64 finalizes all lanes at once under the lane mask.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        ones, mask, steps, unpack = _lanes(count)
        z = _mix64(self._state * ones + steps, mask)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return unpack.unpack(z.to_bytes(16 * count, "little"))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for sample `index` of a run seeded with `seed`."""
    return SplitMix64(_mix64(seed, _MASK64) ^ _mix64(index + 1, _MASK64))


def random_permutation(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates shuffle of 1..n driven by the given stream.

    Step i swaps position i with r mod (i + 1), r the next output below
    the largest multiple of i + 1 up to 2^64 (unbiased rejection).  The
    n - 1 draws come from one take(), and a rejected draw moves every
    later step one output further, past the end of that buffer into
    next_u64.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    perm = list(range(1, n + 1))
    # 2^64 mod bound < bound <= n, so a draw below 2^64 - n is never rejected.
    safe = _TWO64 - n
    draws = chain(rng.take(max(n - 1, 0)), iter(rng.next_u64, None))
    # zip asks range first, so no output is drawn after the last step.
    for i, r in zip(range(n - 1, 0, -1), draws):
        if r >= safe:
            limit = _TWO64 - _TWO64 % (i + 1)
            while r >= limit:
                r = next(draws)
        j = r % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def rsk_shape(perm) -> Partition:
    """Shape of the insertion tableau under row-insertion RSK.

    The first part equals the length of the longest increasing
    subsequence of the permutation.  Raises ValueError unless perm is a
    permutation of 1..n.
    """
    perm = list(perm)
    n = len(perm)
    # n values fill the n-set {1..n} only if they are distinct, so set
    # equality is the whole check, without sorting.
    try:
        valid = set(perm) == set(range(1, n + 1))
    except TypeError:  # an unhashable entry
        valid = False
    if not valid:
        raise ValueError("input must be a permutation of 1..n")
    # Every row ends with the sentinel n + 1, above every entry, so the
    # leftmost entry > x always exists; bumping the sentinel ends the insertion.
    end = n + 1
    rows: list[list[int]] = []
    for x in perm:
        for row in rows:
            # Entries are distinct, so bisect_left finds the leftmost entry > x.
            pos = bisect_left(row, x)
            row[pos], x = x, row[pos]
            if x == end:
                row.append(end)
                break
        else:
            rows.append([x, end])
    # Row lengths of a tableau are weakly decreasing.
    return _trusted_partition([len(row) - 1 for row in rows])


def sample_plancherel(
    n: int, seed: int, count: int
) -> Iterator[tuple[Partition, float]]:
    """Draw `count` Plancherel samples of partitions of n.

    Yields (shape, ln Pl(shape)) with ln Pl = 2 ln dim - ln n!.  The stream
    is a pure function of (n, seed, count prefix).  Raises ValueError for a
    seed outside 0 <= seed < 2^64, which substream would read modulo 2^64,
    and CapExceededError for n above MAX_PLANCHEREL_N or n * count above
    MAX_PLANCHEREL_CELLS.  This is a generator function, so these refusals
    raise at the first ``next()``, not at the call.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in 0..2^64 - 1, got {seed}")
    _check_cap(n, MAX_PLANCHEREL_N, "n")
    _check_cap(n * count, MAX_PLANCHEREL_CELLS, "n*count")
    log_fact = ln_big(factorial(n))
    for k in range(count):
        shape = rsk_shape(random_permutation(n, substream(seed, k)))
        log_pl = 2.0 * ln_big(dimension(shape)) - log_fact
        yield shape, log_pl


def estimate_concentration(n: int, seed: int, count: int) -> tuple[float, float]:
    """Sample mean and standard deviation of -ln Pl(shape) / sqrt(n).

    The mean estimates the constant around which the Plancherel measure
    concentrates; no exact target is asserted, only stability.
    """
    rn = math.sqrt(n)
    xs = [-log_pl / rn for _, log_pl in sample_plancherel(n, seed, count)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    return mean, math.sqrt(var)
