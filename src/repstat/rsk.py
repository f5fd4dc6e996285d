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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from math import factorial
from typing import Iterator

from .partitions import Partition
from .symstats import _check_cap, dimension, ln_big

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Largest n, and largest n * count, that sample_plancherel accepts.  On a
# shared 2-CPU Xeon with Python 3.11 one sample takes about 7 ms at
# n = 1000 and 0.19 s at n = 10000, so a full-size request runs for
# roughly 7 to 20 s.
MAX_PLANCHEREL_N = 10_000
MAX_PLANCHEREL_CELLS = 1_000_000


def _mix64(z: int) -> int:
    """splitmix64 output finalizer (Steele-Lea-Flood)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit splitmix64 stream: state += GAMMA, output = mix(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for sample `index` of a run seeded with `seed`."""
    return SplitMix64(_mix64(seed) ^ _mix64(index + 1))


def random_permutation(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates shuffle of 1..n driven by the given stream."""
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def rsk_shape(perm) -> Partition:
    """Shape of the insertion tableau under row-insertion RSK.

    The first part equals the length of the longest increasing
    subsequence of the permutation.
    """
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("input must be a permutation of 1..n")
    rows: list[list[int]] = []
    for x in perm:
        for row in rows:
            # Entries are distinct, so bisect_left finds the leftmost entry > x.
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return Partition(len(row) for row in rows)


def sample_plancherel(
    n: int, seed: int, count: int
) -> Iterator[tuple[Partition, float]]:
    """Draw `count` Plancherel samples of partitions of n.

    Yields (shape, ln Pl(shape)) with ln Pl = 2 ln dim - ln n!.  The stream
    is a pure function of (n, seed, count prefix).  Raises CapExceededError
    for n above MAX_PLANCHEREL_N or n * count above MAX_PLANCHEREL_CELLS.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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
