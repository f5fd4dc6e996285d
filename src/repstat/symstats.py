"""Dimension and conjugacy-class statistics of symmetric groups.

All counts are exact arbitrary-precision integers; floating point enters
only through natural logarithms of those integers, taken with ln_big so
that accuracy does not degrade when the integers outgrow a double.

Exact identities maintained throughout (and re-verified on every sweep):

    sum of dim           = number of involutions in S_n
    sum of dim^2         = n!
    sum of class sizes   = n!    (the class equation)

The sweep builds every partition of n bottom-up, one row at a time, in a
depth-first walk.  By the hook-length formula (Frame, Robinson and Thrall
1954) a new top row adds hooks only in its own boxes, so the rows below
keep theirs: each step multiplies the carried hook product by the new
row's hooks (_top_row), and the carried centralizer order by v times the
run length of v.  Each node of the walk is finished as soon as it is
made: the top row that takes all the boxes left completes it to one
partition of n, one record.  Only a node with room for one more row
below that top row goes on the stack, 8,038 of the 26,015 at n = 38.
The records are sorted once into reverse-lexicographic order.
dimension walks a single partition with the same row step; class_size
takes n! over the centralizer order straight from the multiplicities of
the parts.  sweep(n) returns that level; no command reads a level
twice.  sweep still caches the last level, to hold it to the exit rather
than free it in process (6-7 ms at n = 38; see sweep).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import factorial, perm
from operator import attrgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .partitions import Partition, _trusted_partition, partition_count

# fractions (and the decimal module it loads) is imported where a Fraction
# is built, so that importing this module does not load it.
if TYPE_CHECKING:
    from fractions import Fraction

# Largest n the S_n sweeps accept and largest bin count histogram accepts.
# A sweep holds all p(n) records, 204,226 at n = 50.
MAX_SWEEP_N = 50
MAX_HIST_BINS = 10_000

_LN2 = math.log(2)


class IntegrityError(RuntimeError):
    """An exact identity that must hold by theorem failed; indicates a bug."""


class CapExceededError(RuntimeError):
    """A request exceeded one of the library's fixed size caps.

    Every cap is a MAX_* constant of the module that checks it; none can
    be raised by the caller.  The message names the input, the size asked
    for and the cap it exceeded.
    """


def _check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CapExceededError(f"{what}={value} exceeds the cap {cap}")


def ln_big(x: int) -> float:
    """Natural log of a positive integer of any size.

    Keeps a 64-bit mantissa and corrects with the discarded bit count, so
    the result is accurate to well over 12 significant digits even when x
    itself would overflow a double.
    """
    if x <= 0:
        raise ValueError(f"ln_big needs a positive integer, got {x}")
    shift = x.bit_length() - 64
    if shift <= 0:
        return math.log(x)
    return math.log(x >> shift) + shift * _LN2


def ln_fraction(r: Fraction) -> float:
    """Natural log of a positive rational, exact-integer logs on both sides."""
    if r <= 0:
        raise ValueError(f"ln_fraction needs a positive rational, got {r}")
    return ln_big(r.numerator) - ln_big(r.denominator)


def _top_row(v: int, top: int, depth: int, segments) -> int:
    """Product of the hooks of a new top row of length v laid over depth rows.

    top is the length of the current top row (0 over no rows).  Columns
    past top are empty below, so their hooks are v - top, ..., 1.  A
    segment (lo + k, hi - lo) stands for the column block (lo, hi] opened
    by the row at depth k; its columns hold depth - k + 1 boxes, so along
    the new row their hooks are the hi - lo consecutive integers below
    v + depth + 1 - lo - k, one falling factorial.
    """
    prod = factorial(v - top)
    x = v + depth + 1
    for start, width in segments:
        prod *= perm(x - start, width)
    return prod


def _hook_product(parts: tuple[int, ...]) -> int:
    """Product of all hook lengths of one partition.

    Lays the rows from the bottom up, as the sweep does.
    """
    hooks = 1
    top = depth = 0
    segments = ()
    for v in reversed(parts):
        hooks *= _top_row(v, top, depth, segments)
        depth += 1
        if v != top:
            segments += ((top + depth, v - top),)
            top = v
    return hooks


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation of S_n labelled by lam.

    Hook-length formula: n! divided by the product of all hook lengths.
    The division is exact by theorem; a nonzero remainder is reported as
    an internal defect rather than silently truncated.
    """
    d, rem = divmod(factorial(lam.n), _hook_product(lam))
    if rem:
        raise IntegrityError(f"hook product does not divide n! for {lam}")
    return d


def class_size(lam: Partition) -> int:
    """Size of the conjugacy class of cycle type lam in S_n.

    n! / prod_i (i^a_i * a_i!) where a_i is the multiplicity of part i.
    """
    central = math.prod(v**a * factorial(a) for v, a in Counter(lam).items())
    return factorial(lam.n) // central


def involution_count(n: int) -> int:
    """Number of involutions in S_n (elements with s^2 = 1).

    Direct sum over the number k of 2-cycles, cross-checked against the
    recurrence I(n) = I(n-1) + (n-1) I(n-2).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = sum(
        factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    )
    prev2, prev1 = 1, 1  # I(0), I(1)
    for m in range(2, n + 1):
        prev2, prev1 = prev1, prev1 + (m - 1) * prev2
    if prev1 != total:
        raise IntegrityError(f"involution formula and recurrence disagree at n={n}")
    return total


class DimRecord(NamedTuple):
    lam: Partition
    dim: int
    class_size: int
    log_dim_sq: float  # ln(dim^2), nats
    log_class: float  # ln(class size), nats


@lru_cache(maxsize=1)
def sweep(n: int) -> tuple[DimRecord, ...]:
    """One DimRecord per partition of n in enumeration order, moment identities verified.

    A bad n is refused before any walk; lru_cache keeps only successful
    returns, so a refused n leaves the cached level in place.  No command
    reads a level twice; the cache stays to hold the last level to the
    exit.  Freed in process, a level costs 6-7 ms at n = 38 and 1.5-2.4
    ms at n = 34.  Without the cache, sym-tables wall_s was +3.7% in one
    set of 10 alternating pairs at --seconds 30 (10 of 10 slower) and
    -1.1% in another (6 of 10 slower), so measure before removing it.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_cap(n, MAX_SWEEP_N, "n")
    fact = factorial(n)
    records = []

    def finish(node):
        # Lay the top row w = rest, which completes node to a partition of n.
        parts, top, depth, w, hooks, central, run, segments = node
        d, rem = divmod(fact, hooks * _top_row(w, top, depth, segments))
        if rem:
            raise IntegrityError(f"hook product does not divide n! for {[w, *parts]}")
        c = fact // (central * w * (run + 1 if w == top else 1))
        records.append(DimRecord(_trusted_partition((w, *parts)), d, c, 2.0 * ln_big(d), ln_big(c)))

    # A node is a stack of rows, bottom-up, and the boxes left above it:
    # (parts, top, depth, rest, hook product, centralizer order, run length
    # of top, segments).  Each node is finished as soon as it is made, so
    # its record never waits on the stack; a child goes there only if it
    # can take another row below its top row.
    root = ((), 0, 0, n, 1, 1, 0, ())
    finish(root)
    nodes = [root]
    while nodes:
        parts, top, depth, rest, hooks, central, run, segments = nodes.pop()
        # Every next row v that leaves room for a top row of at least v.
        for v in range(top or 1, rest // 2 + 1):
            r = run + 1 if v == top else 1
            child = (
                (v, *parts), v, depth + 1, rest - v,
                hooks * _top_row(v, top, depth, segments), central * v * r, r,
                segments if v == top else (*segments, (top + depth + 1, v - top)),
            )
            finish(child)
            # Its top row, rest - v, could split into a row of v and a top row of at least v.
            if rest - v >= 2 * v:
                nodes.append(child)
    # The partitions are distinct tuples, so this is the enumeration's reverse-lex order.
    records.sort(key=attrgetter("lam"), reverse=True)
    dims = list(map(attrgetter("dim"), records))
    sum_dim = sum(dims)
    sum_dim_sq = sum(map(mul, dims, dims))
    sum_class = sum(map(attrgetter("class_size"), records))
    if sum_dim != involution_count(n) or sum_dim_sq != fact or sum_class != fact:
        raise IntegrityError(f"moment identities failed at n={n}")
    return tuple(records)


def max_dimension(records) -> tuple[int, list[Partition]]:
    """Largest dimension in the level records = sweep(n) and every partition attaining it.

    The attaining set is closed under conjugation since dim is invariant
    under transposing the diagram.
    """
    best = 0
    argmax: list[Partition] = []
    for rec in records:
        if rec.dim > best:
            best = rec.dim
            argmax = [rec.lam]
        elif rec.dim == best:
            argmax.append(rec.lam)
    return best, argmax


def plancherel_mass(lam: Partition) -> Fraction:
    """dim^2 / n! in lowest terms; these masses sum to 1 over all lam of n."""
    from fractions import Fraction

    d = dimension(lam)
    return Fraction(d * d, factorial(lam.n))


class AngleReport(NamedTuple):
    """Squared cosine between the dimension vector and the all-ones vector.

    The field ``count`` shadows the ``tuple.count`` method on instances.
    """

    n: int
    sum_dim: int  # = involution count
    sum_dim_sq: int  # = n!
    count: int  # = p(n)
    cos_sq: float  # sum_dim^2 / (count * sum_dim_sq)
    log_ratio: float  # ln of cos_sq via exact-integer logs
    predicted_log: float  # (2 - pi*sqrt(2/3))*sqrt(n) + ln(n)/2


def cos_sq_exact(n: int) -> Fraction:
    """I(n)^2 / (p(n) * n!) as an exact rational."""
    from fractions import Fraction

    i = involution_count(n)
    return Fraction(i * i, partition_count(n) * factorial(n))


def angle_report(n: int) -> AngleReport:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    inv = involution_count(n)
    pn = partition_count(n)
    fact = factorial(n)
    log_ratio = 2.0 * ln_big(inv) - ln_big(pn) - ln_big(fact)
    predicted = (2.0 - math.pi * math.sqrt(2.0 / 3.0)) * math.sqrt(n) + math.log(n) / 2.0
    return AngleReport(
        n=n,
        sum_dim=inv,
        sum_dim_sq=fact,
        count=pn,
        # Integer true division is correctly rounded: the float of the exact ratio.
        cos_sq=inv * inv / (pn * fact),
        log_ratio=log_ratio,
        predicted_log=predicted,
    )


def angle_decay_constant() -> float:
    """pi*sqrt(2/3) - 2, the decay rate governing cos_sq; about 0.56510."""
    return math.pi * math.sqrt(2.0 / 3.0) - 2.0


def log_mean_dimension_estimate(n: int) -> float:
    """ln of 2 sqrt(6) (n/e)^(n/2) n exp(sqrt(n)(1 - pi sqrt(2/3)) - 1/4) ~ I(n) / p(n).

    That is the classical estimate of the mean dimension, taken in log
    space so no value overflows a double.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rn = math.sqrt(n)
    ln_n = math.log(n)
    return (
        math.log(2.0 * math.sqrt(6.0))
        + 0.5 * n * (ln_n - 1.0)
        + ln_n
        + rn * (1.0 - math.pi * math.sqrt(2.0 / 3.0))
        - 0.25
    )


class IntervalCounts(NamedTuple):
    """How many ln(dim^2) resp. ln(class size) values land in a window.

    The window is [alpha * n ln n, beta * n ln n], closed at both ends
    with ties broken toward inclusion.
    """

    n: int
    alpha: float
    beta: float
    count_dim_sq: int
    count_class: int


def interval_counts(n: int, alpha: float, beta: float) -> IntervalCounts:
    if not 0.0 <= alpha < beta <= 1.0:
        raise ValueError(f"need 0 <= alpha < beta <= 1, got alpha={alpha}, beta={beta}")
    records = sweep(n)
    scale = n * math.log(n)
    lo, hi = alpha * scale, beta * scale
    count_a = 0
    count_b = 0
    for rec in records:
        if lo <= rec.log_dim_sq <= hi:
            count_a += 1
        if lo <= rec.log_class <= hi:
            count_b += 1
    return IntervalCounts(n, alpha, beta, count_a, count_b)


def layer_sums(n: int) -> list[tuple[int, float, float]]:
    """(k, sum of ln(dim^2), sum of ln(class size)) over each layer of largest part k = 1..n.

    One pass over sweep(n), adding with += in enumeration order: sum()
    rounds differently from Python 3.12 on and would move printed digits.
    """
    records = sweep(n)  # refuses a bad n before n sizes the lists below
    a = [0.0] * (n + 1)
    b = [0.0] * (n + 1)
    for rec in records:
        k = rec.lam[0]
        a[k] += rec.log_dim_sq
        b[k] += rec.log_class
    return [(k, a[k], b[k]) for k in range(1, n + 1)]


def fraction_near_max(n: int, threshold) -> tuple[Fraction, bool]:
    """Proportion C of partitions whose dimension is within a factor of the max.

    C = #{lam : threshold * m_n <= dim <= m_n} / p(n), exact, over one read
    of sweep(n).  Also reports whether (threshold * C)^2 <= exp(-0.9 * a0 *
    sqrt(n)) with a0 the decay constant pi*sqrt(2/3) - 2, in log space.
    """
    from fractions import Fraction

    frac = Fraction(threshold)
    if not 0 < frac < 1:
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    records = sweep(n)
    m, _ = max_dimension(records)
    near = sum(1 for rec in records if rec.dim * frac.denominator >= frac.numerator * m)
    c = Fraction(near, len(records))
    bound_ok = 2.0 * ln_fraction(frac * c) <= -0.9 * angle_decay_constant() * math.sqrt(n)
    return c, bound_ok


def vk_ratio(n: int, m: int) -> float:
    """-ln(m^2 / n!) / sqrt(n), the concentration rate of m, the max dimension of S_n."""
    return (ln_big(factorial(n)) - 2.0 * ln_big(m)) / math.sqrt(n)


class Histogram(NamedTuple):
    bin_edges: tuple[float, ...]  # length bins+1, strictly increasing
    counts: tuple[int, ...]  # length bins, sums to the input length


def histogram(values, bins: int) -> Histogram:
    """Equal-width histogram over [min, max] of the data.

    A value equal to an interior edge goes to the bin on its right; the
    maximum goes to the last bin.  Constant data degenerates to a single
    bin spanning a unit interval around the value, so the count total is
    always conserved.  bins is checked before values is consumed, so a
    refused request costs nothing even when values is a generator over a
    sweep.  A nan or infinite value, a range past the float maximum, or a
    range too narrow for strictly increasing float edges is refused.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    _check_cap(bins, MAX_HIST_BINS, "bins")
    values = list(values)
    if not values:
        raise ValueError("histogram needs at least one value")
    lo = min(values)
    hi = max(values)
    if not (all(map(math.isfinite, values)) and math.isfinite(hi - lo)):
        raise ValueError("histogram needs finite values whose range fits a float")
    if lo == hi:
        # One unit-wide bin; past 2^53 its edges round onto the value.
        bins = 1
        edges = [lo - 0.5, lo + 0.5]
    else:
        edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
        edges[-1] = hi
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"range [{lo!r}, {hi!r}] is too narrow for {bins} bins of distinct float edges")
    counts = [0] * bins
    for v in values:
        # The edges are monotone, so bisection places v by the rule above.
        counts[min(bisect_right(edges, v) - 1, bins - 1)] += 1
    return Histogram(tuple(edges), tuple(counts))
