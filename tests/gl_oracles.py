"""Brute-force oracles for the GL_n(F_q) closed forms in repstat.qseries."""

from repstat.kirillov import _is_prime
from repstat.qseries import QPolynomial


class UnsupportedFieldError(ValueError):
    """Raised when matrix enumeration is requested over a non-prime field."""


def _det_mod(mat: list[list[int]], p: int) -> int:
    """Determinant mod p by cofactor expansion; fine for n <= 3."""
    n = len(mat)
    if n == 1:
        return mat[0][0] % p
    if n == 2:
        return (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        cof = mat[0][j] * _det_mod(minor, p)
        total += cof if j % 2 == 0 else -cof
    return total % p


def symmetric_invertible_count(n: int, q: int) -> int:
    """Count invertible symmetric n x n matrices over F_q by brute force.

    Exhaustive enumeration over all q^(n(n+1)/2) symmetric matrices; the
    independent check for gow_sum.  Restricted to prime q and tiny n so
    the enumeration stays instantaneous.
    """
    if not _is_prime(q):
        raise UnsupportedFieldError(f"q={q} is not prime; only prime fields are enumerated")
    if not (1 <= n <= 3 and q <= 5):
        raise ValueError(f"brute force supports n <= 3 and q <= 5, got n={n}, q={q}")
    entries = n * (n + 1) // 2
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    count = 0
    for code in range(q**entries):
        mat = [[0] * n for _ in range(n)]
        c = code
        for i, j in positions:
            c, v = divmod(c, q)
            mat[i][j] = v
            mat[j][i] = v
        if _det_mod(mat, q) != 0:
            count += 1
    return count


def q_power(k: int) -> QPolynomial:
    return QPolynomial([0] * k + [1])


def _pair_product(pairs) -> QPolynomial:
    """prod (q^a - q^b) over the (a, b) pairs, one QPolynomial product per binomial."""
    poly = q_power(0)
    for a, b in pairs:
        poly = poly * (q_power(a) - q_power(b))
    return poly


def gow_sum_pairs(n: int) -> QPolynomial:
    """B_n(q) = q^(m^2+m) (q^n' - 1)(q^(n'-2) - 1)...(q - 1), n' the largest odd e <= n, m = n // 2."""
    m = n // 2
    top = n if n % 2 == 1 else n - 1
    return q_power(m * m + m) * _pair_product((e, 0) for e in range(top, 0, -2))


def gl_order_pairs(n: int) -> QPolynomial:
    """|GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1)), one factor per choice of row."""
    return _pair_product((n, i) for i in range(n))
