"""Exact polynomial-in-q and truncated-series machinery for GL_n(F_q).

Covers the class-count polynomials C_n(q) from the Feit-Fine generating
function, Gow's degree-sum polynomials B_n(q), group orders D_n(q), the
Gauss theta/eta identity, the limit constant gamma(q), and the closed-form
GL_2 census, one function that returns the table ``gl census`` prints.
Everything here is exact integer or rational arithmetic; floats never
appear except in callers' reports.

B_n and D_n both have the form q^s * prod_e (q^e - 1), kept as the pair
(s, exponents): the polynomial is built by one shift-and-subtract pass per
factor over a plain coefficient list, and log_constant_ratio evaluates the
same exponents at q without building it.  C_n comes from the Euler
product itself, expanded on plain ints that each pack one polynomial in q
(Kronecker substitution), and the Gauss identity from slice updates of
an integer series; both multiply by 1 - t^m with one slice update.
"""

from __future__ import annotations

import sys
from operator import add, index, sub
from typing import TYPE_CHECKING, NamedTuple

from .symstats import IntegrityError, _check_cap

# fractions (and the decimal module it loads) is imported where a Fraction
# is built, so that importing this module does not load it.
if TYPE_CHECKING:
    from fractions import Fraction

# Largest sizes the GL tables accept.  On a shared 2-CPU Xeon with Python
# 3.11, feit_fine(200) takes about 11 ms, gl_order over n = 1..60 about
# 11 ms, and gauss_identity_check(2000) about 39 ms.  MAX_RATIO_BITS
# bounds the bit size of the exact rationals: gamma_q refuses terms T when
# T(T+1)/2 * bits(q) exceeds it, before summing (its 40-term reference sum
# in `gl ratio` then admits q up to 159 bits, about 0.5 s, where 10^1000
# took 87 s unbounded), and `gl ratio` refuses nmax^2 * bits(q) above it,
# since its ratios grow with the bit size of q^(nmax^2): --nmax 200 passes
# up to q = 7 (about 0.41 s) and refuses q = 97 (about 2.1 s).
# `gl census` bounds the bit size of q: its largest cells are about q^4,
# and at 3000 bits those print in at most 3,613 digits, below Python's
# default 4,300-digit int-to-str limit.
MAX_CLASS_COUNT_N = 200
MAX_POLY_N = 60
MAX_GAUSS_ORDER = 2000
MAX_RATIO_BITS = 2**17
MAX_CENSUS_Q_BITS = 3000


class QPolynomial:
    """Polynomial in q with arbitrary-precision integer coefficients.

    coeffs[k] is the coefficient of q^k; the representation is normalized
    (no trailing zeros), and the zero polynomial has an empty coeff tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-v for v in self.coeffs)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(other * v for v in self.coeffs)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, b in enumerate(other.coeffs):
            if b:
                for i, a in enumerate(self.coeffs, j):
                    out[i] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def serialize(self) -> str:
        """Human form ``c0 + c1*q + c2*q^2 + ...`` including zero terms."""
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)})"


P_ZERO = QPolynomial()
P_ONE = QPolynomial([1])
P_Q = QPolynomial([0, 1])


# Only the tests' oracle for feit_fine; kept here because perfbench/tracer.py patches __mul__.
class TruncatedSeries:
    """Power series in t to a fixed order, with QPolynomial coefficients.

    Multiplication discards every power of t beyond the order, so the ring
    is closed and products may be taken in any association order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_terms(order, {0: P_ONE})

    @classmethod
    def from_terms(cls, order: int, terms: dict[int, QPolynomial]) -> "TruncatedSeries":
        coeffs = [P_ZERO] * (order + 1)
        for power, poly in terms.items():
            if 0 <= power <= order:
                coeffs[power] = coeffs[power] + poly
        return cls(order, coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("series orders differ")
        n = self.order
        out = [P_ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)


_class_counts = [P_ONE]  # C_0, C_1, ..., expanded afresh when a larger nmax is asked for

# memoryview format of one packed coefficient: a signed 64-bit digit, so a
# packed C_n is C_n(2^64).  The overpartition numbers bound every
# coefficient of C_n, and the tests pin that they stay below 2^63 up to
# the cap.
_DIGIT = "q"


def _times_one_minus(s: list[int], m: int) -> None:
    """s *= 1 - t^m to len(s) terms, in one slice update that reads the old values."""
    s[m:] = map(sub, s[m:], s[: len(s) - m])


def _over_one_minus(s: list[int], m: int) -> None:
    """s /= 1 - t^m: out[k] = in[k] + out[k-m], one block of m at a time."""
    for k in range(m, len(s), m):
        s[k : k + m] = map(add, s[k : k + m], s[k - m : k])


def feit_fine(nmax: int) -> tuple[QPolynomial, ...]:
    """Class-count polynomials C_0..C_nmax for GL_n(F_q).

    C_n(q) counts the conjugacy classes of GL_n(F_q), and sum_n C_n t^n =
    prod_{r>=1} (1 - t^r) / (1 - q t^r) (Macdonald, Symmetric Functions and
    Hall Polynomials, Ch. IV).  The product is expanded to order nmax on
    plain ints by Kronecker substitution: each entry packs a polynomial in
    q as its value at q = 2^64, one signed 64-bit digit per coefficient,
    so multiplying by q is a shift.  Each C_n is checked to decode into
    exactly n + 1 digits, to be monic of degree n, and to vanish at q = 1
    for n >= 1 (the product is 1 there).
    """
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    _check_cap(nmax, MAX_CLASS_COUNT_N, "nmax")
    table = _class_counts
    if len(table) <= nmax:
        width = memoryview(b"").cast(_DIGIT).itemsize
        bits = 8 * width
        s = [1] + [0] * nmax
        for r in range(1, nmax + 1):
            _times_one_minus(s, r)
            # Dividing by 1 - q t^r is out[k] = in[k] + q out[k-r], and q is a shift.
            for k in range(r, nmax + 1):
                s[k] += s[k - r] << bits
        # While every digit lies in [-2^(bits-1), 2^(bits-1)), adding 2^(bits-1)
        # to each and flipping that bit back leaves each in two's complement,
        # with no carries between them.
        half = 1 << (bits - 1)
        bias = 0
        polys = []
        for n, packed in enumerate(s):
            bias = bias << bits | half
            try:
                raw = ((packed + bias) ^ bias).to_bytes(width * (n + 1), sys.byteorder)
            except OverflowError:
                raise IntegrityError(f"C_{n} does not decode into {n + 1} digits of {bits} bits") from None
            coeffs = memoryview(raw).cast(_DIGIT)
            if coeffs[n] != 1:
                raise IntegrityError(f"C_{n} is not monic of degree {n}: {QPolynomial(coeffs)}")
            if n and sum(coeffs):
                raise IntegrityError(f"C_{n}(1) is {sum(coeffs)}, not 0")
            polys.append(QPolynomial(coeffs))
        table[:] = polys
    return tuple(table[: nmax + 1])


def _gow_factors(n: int) -> tuple[int, range]:
    """B_n(q) = q^(m^2+m) * prod_{odd e <= n} (q^e - 1), m = n // 2, as (shift, exponents)."""
    m = n // 2
    return m * m + m, range(1, n + 1, 2)


def _gl_order_factors(n: int) -> tuple[int, range]:
    """D_n(q) = q^(n(n-1)/2) * prod_{e=1..n} (q^e - 1), as (shift, exponents)."""
    return n * (n - 1) // 2, range(1, n + 1)


def _factor_polynomial(shift: int, exponents) -> QPolynomial:
    """q^shift * prod_e (q^e - 1): each factor maps c to q^e c - c in one pass."""
    coeffs = [1]
    for e in exponents:
        pad = [0] * e
        coeffs = list(map(sub, pad + coeffs, coeffs + pad))
    return QPolynomial([0] * shift + coeffs)


def _factor_value(shift: int, exponents, q):
    value = q**shift
    for e in exponents:
        value *= q**e - 1
    return value


def gow_sum(n: int) -> QPolynomial:
    """Sum of the irreducible character degrees of GL_n(F_q), as a polynomial.

    Equal to the number of invertible symmetric matrices:
    q^(m^2+m) (q^(2m+1)-1)(q^(2m-1)-1)...(q-1) for n = 2m+1, and
    q^(m^2+m) (q^(2m-1)-1)(q^(2m-3)-1)...(q-1) for n = 2m.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _factor_polynomial(*_gow_factors(n))


def gl_order(n: int) -> QPolynomial:
    """|GL_n(F_q)| = (q^n - 1)(q^n - q) ... (q^n - q^(n-1)), degree n^2."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _factor_polynomial(*_gl_order_factors(n))


# No command calls this schoolbook product; it stays because perfbench/tracer.py
# patches it by name, and the tests check the slice kernels against it.
def _int_series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for j, y in enumerate(b[: order + 1]):
        if y:
            for i, x in enumerate(a[: order + 1 - j], j):
                out[i] += x * y
    return out


def gauss_identity_check(order: int) -> bool:
    """Check sum_{i>=0} t^(i(i+1)/2) = prod_{i>=1} (1-t^(2i))/(1-t^(2i-1)).

    Both sides are expanded as exact integer series to the given order and
    compared coefficient by coefficient.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    _check_cap(order, MAX_GAUSS_ORDER, "order")
    lhs = [0] * (order + 1)
    i = 0
    while i * (i + 1) // 2 <= order:
        lhs[i * (i + 1) // 2] = 1
        i += 1
    rhs = [1] + [0] * order
    for m in range(1, order + 1, 2):
        _times_one_minus(rhs, m + 1)
        _over_one_minus(rhs, m)
    return lhs == rhs


class GammaPartialSum(NamedTuple):
    value: Fraction
    tail_bound: Fraction
    terms: int


def gamma_q(q, terms: int) -> GammaPartialSum:
    """Partial sum of gamma(q) = sum_{i>=0} q^(-i(i+1)/2), exact.

    Monotone increasing in the number of terms.  The reported tail bound
    q^(-T(T+1)/2) / (1 - q^(-(T+1))) is rigorous for any rational q > 1
    and is at most 2 q^(-T(T+1)/2) once q >= 2.  T(T+1)/2 * bits(q) above
    MAX_RATIO_BITS is refused before any term is summed.
    """
    from fractions import Fraction

    q = Fraction(q)
    if q <= 1:
        raise ValueError(f"q must exceed 1, got {q}")
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    # Every exact value below is about the bit size of q^(T(T+1)/2); as
    # q > 1, its numerator is the larger part of q.
    power = terms * (terms + 1) // 2
    _check_cap(power * q.numerator.bit_length(), MAX_RATIO_BITS, f"{power} * bits(q)")
    value = sum((Fraction(1) / q ** (i * (i + 1) // 2) for i in range(terms)), Fraction(0))
    head = Fraction(1) / q**power
    tail_bound = head / (1 - Fraction(1) / q ** (terms + 1))
    return GammaPartialSum(value, tail_bound, terms)


def log_constant_ratio(n: int, q) -> Fraction:
    """B_n(q)^2 / (C_n(q) * D_n(q)) as an exact rational.

    B, C, D are the degree sum, the class count, and the group order of
    GL_n(F_q); for fixed q >= 2 the ratio tends to 1/gamma(q) as n grows.
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    q = Fraction(q)
    if q <= 1:
        raise ValueError(f"q must exceed 1, got {q}")
    x = q.numerator if q.denominator == 1 else q
    b = _factor_value(*_gow_factors(n), x)
    c = feit_fine(n)[n].evaluate(x)
    d = _factor_value(*_gl_order_factors(n), x)
    return Fraction(b * b) / (c * d)


# The classical GL_2(F_q) census. Representations: (count, dimension);
# conjugacy classes: (count, size). Family i of the representations and
# family i of the classes have the same count, so one table of doubled
# counts serves both. The elliptic classes (diagonalizable only over
# F_{q^2}) are printed in the classical table with size (q^2-q)/2, while
# the centralizer index gives q^2-q; gl2_census has a row for each
# candidate with the class equation's verdict.
_FAMILY_COUNT_X2 = (
    QPolynomial([-2, 2]),  # 2(q-1): central characters; central classes
    QPolynomial([-2, 2]),  # 2(q-1): twists of Steinberg; central times unipotent
    QPolynomial([2, -3, 1]),  # (q-1)(q-2): principal series; split semisimple
    QPolynomial([0, -1, 1]),  # q^2-q: discrete series; elliptic
)
_REP_DIM = (
    P_ONE,
    P_Q,
    QPolynomial([1, 1]),  # q+1
    QPolynomial([-1, 1]),  # q-1
)
_CLASS_SIZE = (
    P_ONE,
    QPolynomial([-1, 0, 1]),  # q^2-1, central times unipotent
    QPolynomial([0, 1, 1]),  # q(q+1), split semisimple
    QPolynomial([0, -1, 1]),  # q^2-q, elliptic (confirmed by the class equation)
)


def gl2_census(q: int) -> list[tuple]:
    """The ``gl census`` table of GL_2(F_q): (kind, count, value, weight, ok) rows.

    Four rep rows (count, dim, count*dim^2), four class rows (count, size,
    count*size), the elliptic classes at their printed size, both elliptic
    size candidates against the class equation, and three checks.  The two
    sum checks pass only if they hold at q and as polynomial identities
    (counts doubled so every polynomial stays integer).
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    _check_cap(q.bit_length(), MAX_CENSUS_Q_BITS, "bits(q)")
    order_poly = gl_order(2)
    order = order_poly.evaluate(q)
    counts = [c2.evaluate(q) // 2 for c2 in _FAMILY_COUNT_X2]
    dims = [d.evaluate(q) for d in _REP_DIM]
    sizes = [s.evaluate(q) for s in _CLASS_SIZE]
    rows = [("rep", c, d, c * d * d, None) for c, d in zip(counts, dims)]
    rows += [("class", c, s, c * s, None) for c, s in zip(counts, sizes)]
    elliptic, half_size = counts[3], sizes[3] // 2
    rows.append(("class_printed_elliptic", elliptic, half_size, elliptic * half_size, None))
    base = sum(c * s for c, s in zip(counts[:3], sizes))
    for size in (sizes[3], half_size):
        weight = base + elliptic * size
        rows.append(("elliptic_candidate", elliptic, size, weight, weight == order))
    rep_sum = sum(c * d * d for c, d in zip(counts, dims))
    class_sum = base + elliptic * sizes[3]
    two_order = 2 * order_poly
    rep_sym = sum((c2 * d * d for c2, d in zip(_FAMILY_COUNT_X2, _REP_DIM)), P_ZERO) == two_order
    class_sym = sum((c2 * s for c2, s in zip(_FAMILY_COUNT_X2, _CLASS_SIZE)), P_ZERO) == two_order
    c2 = feit_fine(2)[2]
    return rows + [
        ("check_rep_sum", None, order, rep_sum, rep_sum == order and rep_sym),
        ("check_class_sum", None, order, class_sum, class_sum == order and class_sym),
        ("check_class_count", sum(counts), c2.evaluate(q), None, census_class_count_polynomial() == c2),
    ]


def census_class_count_polynomial() -> QPolynomial:
    """Total number of GL_2 conjugacy classes from the census, symbolically.

    Summing the four doubled family counts and halving must reproduce the
    Feit-Fine polynomial C_2(q) = q^2 - 1; gl2_census and the test suite
    check this.
    """
    doubled = sum(_FAMILY_COUNT_X2, P_ZERO)
    return QPolynomial(v // 2 for v in doubled.coeffs)
