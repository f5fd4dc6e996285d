"""Dimension and conjugacy-class statistics of symmetric groups.

All counts are exact arbitrary-precision integers; floating point enters
only through natural logarithms of those integers, taken with ln_big so
that accuracy does not degrade when the integers outgrow a double.

Exact identities maintained throughout (and re-verified on every level
that sweep or level_maxima builds):

    sum of dim           = number of involutions in S_n
    sum of dim^2         = n!
    sum of class sizes   = n!    (the class equation)

One walk (_walk) builds the partitions bottom-up, one row at a time,
depth first.  By the hook-length formula (Frame, Robinson and Thrall
1954) a new top row adds hooks only in its own boxes, so the rows below
keep theirs: each step multiplies the carried hook product by the new
row's hooks (_top_row), and the carried centralizer order by v times the
run length of v.  A node of m boxes is closed by a top row w at least as
long as its top, to one partition of m + w; only a node with room for
one more row below such a top row goes on the stack.  Each node also
carries a base from the bounded-part counts B[k][j] (the partitions of k
with no part above j), so the partition it closes to has a known rank in
reverse-lexicographic order, one table lookup away; nothing is sorted.

sweep(n) walks to n and closes each node at n alone: each record goes
straight into its rank slot, and the exact arithmetic runs as map passes
over chunks of 256 records.  level_maxima(nmax) walks to nmax once and
closes each node at every level where its top row fits, keeping per
level only running sums, the count, the max and its argmax: `sym maxdim`
materializes no level, and --nmax 50 ran in 2.2 s at a 16 MB peak
against 6.6 s and 177 MB when it swept each level (Python 3.11, shared
2-CPU host).  dimension walks a single partition with the same row step;
class_size takes n! over the centralizer order straight from the
multiplicities of the parts.  No command reads a level twice.  sweep
caches the last level only so that it is never freed: the repstat
process ends with os._exit and no teardown (see sweep).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import compress, islice, repeat
from math import factorial, perm
from operator import add, eq, floordiv, mod, mul, rshift
from typing import TYPE_CHECKING, NamedTuple

from .errors import IntegrityError, _check_cap
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

# ln_big's shift by bit length b, max(b - 64, 0) (log(x >> 0) + 0 * ln 2 is
# log(x)), and that shift times ln 2, for integers up to (MAX_SWEEP_N!)^2.
_SHIFT = [0] * 65 + list(range(1, 449))
_SHIFT_LN2 = [s * _LN2 for s in _SHIFT]


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


# Records per batch of exact arithmetic in sweep: each batch runs as C-level
# map passes over its columns.
_CHUNK = 256


def _bounded_counts(n: int) -> list[list[int]]:
    """B[k][j], the number of partitions of k with no part above j, for k, j <= n.

    B[k][j] = B[k][j - 1] + B[k - j][j] (those without a part j, then those
    with one), and B[k][j] = p(k) once j >= k.
    """
    table = [[1] * (n + 1)]
    for k in range(1, n + 1):
        row = [0]
        for j in range(1, n + 1):
            row.append(row[-1] + (table[k - j][j] if j <= k else 0))
        table.append(row)
    return table


def _walk(nmax: int, counts):
    """Every node of the bottom-up walk to nmax boxes, depth first, the empty node first.

    A node is a stack of rows, bottom-up, with room for a top row of at
    least its own top on some level up to nmax: (below, top, depth, rest,
    hook product, centralizer order, run length of top, segments, base).
    Its rows are top over the rows below (none for the empty node, whose
    top is 0), and rest is nmax less its boxes.  The rows of a node are
    laid out as one tuple only when it goes on the stack, which it does
    only if it can take another row below its top row.

    base places the node's partitions in reverse-lexicographic order.  The
    rank of lam among the partitions of k is the sum over its rows i of
    B[r][lam_(i-1)] - B[r][lam_i], with B = counts, r the boxes in row i
    and below, and lam_0 = k.  base is that sum over the rows below the
    top, less B[m][top] for the top row, m being the node's boxes; so a
    top row w closes the node to a partition of k = m + w whose rank is
    base + B[m][w] + p(k) - B[k][w].
    """
    # A row v over m boxes adds B[m][v] - B[m + v][v] to the base.
    steps = [[below[v] - counts[m + v][v] for v in range((nmax - m) // 2 + 1)] for m, below in enumerate(counts)]
    root = ((), 0, 0, nmax, 1, 1, 0, (), -1)
    yield root
    nodes = [root]
    while nodes:
        below, top, depth, rest, hooks, central, run, segments, base = nodes.pop()
        rows = (top, *below) if top else ()
        step = steps[nmax - rest]
        # Every next row v that leaves room for a top row of at least v.
        for v in range(top or 1, rest // 2 + 1):
            r = run + 1 if v == top else 1
            child = (
                rows, v, depth + 1, rest - v,
                hooks * _top_row(v, top, depth, segments), central * v * r, r,
                segments if v == top else (*segments, (top + depth + 1, v - top)),
                base + step[v],
            )
            yield child
            # Its top row, rest - v, could split into a row of v and a top row of at least v.
            if rest - v >= 2 * v:
                nodes.append(child)


def _lam(w: int, below, top: int) -> Partition:
    """The partition that a top row w makes of a node."""
    return _trusted_partition((w, top, *below) if top else (w,))


def _ln_batch(xs):
    """ln_big over positive integers xs below 2**512, the same floats bit for bit."""
    bits = list(map(int.bit_length, xs))
    return map(add, map(math.log, map(rshift, xs, map(_SHIFT.__getitem__, bits))), map(_SHIFT_LN2.__getitem__, bits))


def _close(fact: int, ws, below, top, depth, hooks, central, run, segments) -> tuple[list[int], list[int]]:
    """Dimensions and class sizes of the partitions of n that top rows ws make of nodes, n! = fact.

    The nodes come as columns of _walk's fields, rest and base left out.
    """
    facts = repeat(fact)
    hooks = list(map(mul, hooks, map(_top_row, ws, top, depth, segments)))
    if any(map(mod, facts, hooks)):
        lam = _lam(*next(compress(zip(ws, below, top), map(mod, facts, hooks))))
        raise IntegrityError(f"hook product does not divide n! for {list(lam)}")
    # The top row w adds w, and closes a run of length run + 1 when w == top.
    central = map(mul, central, map(mul, ws, map(add, repeat(1), map(mul, map(eq, ws, top), run))))
    return list(map(floordiv, facts, hooks)), list(map(floordiv, facts, central))


def _check_level(n: int, count: int, sum_dim: int, sum_dim_sq: int, sum_class: int) -> None:
    fact = factorial(n)
    if sum_dim != involution_count(n) or sum_dim_sq != fact or sum_class != fact:
        raise IntegrityError(f"moment identities failed at n={n}")
    if count != partition_count(n):
        raise IntegrityError(f"the walk made {count} partitions of {n}, not p({n})")


@lru_cache(maxsize=1)
def sweep(n: int) -> tuple[DimRecord, ...]:
    """One DimRecord per partition of n in enumeration order, moment identities verified.

    The walk to n closes each node with the top row that takes all the
    boxes left, and puts its record straight into its reverse-lex slot.
    The exact arithmetic runs as map passes over chunks of _CHUNK records:
    the hook remainders, n! over the hook products and over the
    centralizer orders, both logs, and the records, built by DimRecord.
    Every slot must be filled exactly once.

    A bad n is refused before any walk; lru_cache keeps only successful
    returns, so a refused n leaves the cached level in place.  No command
    reads a level twice: the cache holds the last level so that it is
    never freed, since the repstat process ends with os._exit and a level
    freed in process costs 6-7 ms at n = 38.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_cap(n, MAX_SWEEP_N, "n")
    counts = _bounded_counts(n)
    count = counts[n][n]
    if count != partition_count(n):
        raise IntegrityError(f"the bounded-part counts give {count} partitions of {n}, not p({n})")
    # A node whose top row takes the rest w of the boxes lands at base + closing[w].
    closing = [counts[n - w][w] + count - counts[n][w] for w in range(n + 1)]
    fact = factorial(n)
    records = [None] * count
    made = sum_dim = sum_dim_sq = sum_class = 0
    nodes = _walk(n, counts)
    while chunk := list(islice(nodes, _CHUNK)):
        below, top, depth, rest, hooks, central, run, segments, base = zip(*chunk)
        dims, classes = _close(fact, rest, below, top, depth, hooks, central, run, segments)
        # _trusted_partition's tuple.__new__, called from map without a Python frame per record.
        lams = list(map(tuple.__new__, repeat(Partition), map(add, zip(rest, top), below)))
        if not top[0]:
            # The empty node, first in the walk, has no top row to lay under rest.
            lams[0] = _lam(n, (), 0)
        recs = list(map(DimRecord, lams, dims, classes, map(mul, repeat(2.0), _ln_batch(dims)), _ln_batch(classes)))
        try:
            for slot, rec in zip(map(add, base, map(closing.__getitem__, rest)), recs):
                records[slot] = rec
        except IndexError:
            raise IntegrityError(f"a rank slot fell outside the {count} partitions of {n}") from None
        _, dims, classes, _, _ = zip(*recs)
        made += len(recs)
        sum_dim += sum(dims)
        sum_dim_sq += sum(map(mul, dims, dims))
        sum_class += sum(classes)
    # made records in made slots, none left empty: each slot filled exactly once.
    if made != count or not all(records):
        raise IntegrityError(f"the rank slots of n={n} are not filled once each")
    _check_level(n, made, sum_dim, sum_dim_sq, sum_class)
    return tuple(records)


def level_maxima(nmax: int) -> list[tuple[int, list[Partition], int]]:
    """(max dimension, partitions attaining it, p(n)) for each n = 1..nmax, from one walk.

    The walk to nmax closes each node at every level where its top row
    fits.  A chunk of nodes is sorted by the first such level, so the
    nodes that close at a level are a prefix of it, closed in one batch.
    Each level keeps only running sums, its count, its max and the
    partitions attaining it, listed in reverse-lexicographic order, the
    order of sweep(n); no level is materialized.  The hook remainder of
    every partition, the moment identities and the count p(n) of every
    level are verified.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    _check_cap(nmax, MAX_SWEEP_N, "nmax")
    size = nmax + 1
    facts = list(map(factorial, range(size)))
    tally = [0] * size
    sum_dim = [0] * size
    sum_dim_sq = [0] * size
    sum_class = [0] * size
    best = [0] * size
    argmax: list[list[Partition]] = [[] for _ in range(size)]
    nodes = _walk(nmax, _bounded_counts(nmax))
    while chunk := list(islice(nodes, _CHUNK)):
        # A node of nmax - rest boxes first closes at that plus max(top, 1).
        firsts = [nmax - node[3] + (node[1] or 1) for node in chunk]
        order = sorted(range(len(chunk)), key=firsts.__getitem__)
        below, top, depth, rest, hooks, central, run, segments, _ = zip(*map(chunk.__getitem__, order))
        firsts.sort()
        for k in range(firsts[0], size):
            # The first c nodes close at level k, with top rows k - (nmax - rest).
            c = bisect_right(firsts, k)
            ws = list(map(add, repeat(k - nmax), rest[:c]))
            dims, classes = _close(
                facts[k], ws, below[:c], top[:c], depth[:c], hooks[:c], central[:c], run[:c], segments[:c]
            )
            tally[k] += c
            sum_dim[k] += sum(dims)
            sum_dim_sq[k] += sum(map(mul, dims, dims))
            sum_class[k] += sum(classes)
            m = max(dims)
            if m >= best[k]:
                if m > best[k]:
                    best[k] = m
                    argmax[k] = []
                for i in compress(range(c), map(eq, dims, repeat(m))):
                    argmax[k].append(_lam(ws[i], below[i], top[i]))
    for k in range(1, size):
        _check_level(k, tally[k], sum_dim[k], sum_dim_sq[k], sum_class[k])
        argmax[k].sort(reverse=True)
    return [(best[k], argmax[k], tally[k]) for k in range(1, size)]


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
    m = max(rec.dim for rec in records)
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
