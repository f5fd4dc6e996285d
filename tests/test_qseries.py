"""Polynomial/series machinery and the GL_n(F_q) closed forms."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repstat
from repstat import qseries
from repstat.qseries import (
    P_ONE,
    P_Q,
    QPolynomial,
    TruncatedSeries,
    _int_series_mul,
    _over_one_minus,
    _times_one_minus,
    census_class_count_polynomial,
    feit_fine,
    gamma_q,
    gauss_identity_check,
    gl2_census,
    gl_order,
    gow_sum,
    log_constant_ratio,
)
from repstat.errors import CapExceededError, IntegrityError

from gl_oracles import (
    UnsupportedFieldError, gl_order_pairs, gow_sum_pairs, log_derivative_class_counts, q_power,
    symmetric_invertible_count,
)


def dense_product(a, b):
    """Schoolbook product of two coefficient lists, every pair of terms."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def euler_product_class_counts(nmax):
    """C_0..C_nmax by expanding prod_r (1 - t^r) / (1 - q t^r) to order nmax."""
    series = TruncatedSeries.one(nmax)
    for r in range(1, nmax + 1):
        series = series * TruncatedSeries.from_terms(nmax, {0: P_ONE, r: -P_ONE})
        geometric = {r * k: q_power(k) for k in range(nmax // r + 1)}
        series = series * TruncatedSeries.from_terms(nmax, geometric)
    return series.coeffs


def overpartition_counts(nmax):
    """pbar(0..nmax), the coefficients of prod (1 + t^r) / (1 - t^r).

    That product is 1 / sum_{k in Z} (-1)^k t^(k^2) (Gauss), so
    pbar(n) = 2 sum_{k>=1} (-1)^(k+1) pbar(n - k^2).
    """
    pbar = [1]
    for n in range(1, nmax + 1):
        pbar.append(2 * sum((-1) ** (k + 1) * pbar[n - k * k] for k in range(1, isqrt(n) + 1)))
    return pbar


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty class-count table for one test; the shared one is restored after."""
    monkeypatch.setattr(qseries, "_class_counts", [P_ONE])


coeff_lists = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=12)


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPolynomial([0, 0]).coeffs == ()
        assert QPolynomial().degree == -1

    def test_non_integral_coefficients_refused(self):
        for bad in ([0.5, 1.9], [1, 2.0], ["3"], [Fraction(4, 1)]):
            with pytest.raises(TypeError):
                QPolynomial(bad)
        assert QPolynomial([True, False, 2]).coeffs == (1, 0, 2)
        assert all(type(v) is int for v in QPolynomial([True, 2]).coeffs)

    def test_arithmetic(self):
        p = (P_Q - P_ONE) * (P_Q + P_ONE)
        assert p == QPolynomial([-1, 0, 1])
        assert (p - p).is_zero()
        assert (3 * P_Q).coeffs == (0, 3)

    def test_non_polynomial_operand_is_type_error(self):
        with pytest.raises(TypeError):
            P_ONE + 1
        with pytest.raises(TypeError):
            P_ONE - 1

    @given(coeff_lists, coeff_lists)
    def test_sparse_product_matches_dense(self, a, b):
        # Sparse right operands (binomials, zero runs) are the fast path.
        expected = QPolynomial(dense_product(a, b))
        assert QPolynomial(a) * QPolynomial(b) == expected
        assert QPolynomial(b) * QPolynomial(a) == expected

    def test_evaluate(self):
        p = QPolynomial([-1, 0, 1])  # q^2 - 1
        assert p.evaluate(5) == 24
        assert p.evaluate(Fraction(3, 2)) == Fraction(5, 4)

    def test_serialize(self):
        assert QPolynomial([-1, 1]).serialize() == "-1 + 1*q"
        assert QPolynomial([0, 0, 3]).serialize() == "0 + 0*q + 3*q^2"
        assert QPolynomial().serialize() == "0"


class TestTruncatedSeries:
    def test_multiplication_truncates(self):
        t = TruncatedSeries.from_terms(2, {1: P_ONE})
        sq = t * t
        assert sq.coeffs == (QPolynomial(), QPolynomial(), P_ONE)
        assert (sq * t).coeffs == (QPolynomial(),) * 3  # t^3 cut off

    def test_associativity(self):
        a = TruncatedSeries.from_terms(4, {0: P_ONE, 1: P_Q})
        b = TruncatedSeries.from_terms(4, {0: P_ONE, 2: -P_ONE})
        c = TruncatedSeries.from_terms(4, {1: q_power(2)})
        assert (a * b) * c == a * (b * c)


class TestFeitFine:
    def test_first_values(self):
        c = feit_fine(3)
        assert c[0] == P_ONE
        assert c[1] == QPolynomial([-1, 1])  # q - 1
        assert c[2] == QPolynomial([-1, 0, 1])  # q^2 - 1
        assert c[3] == QPolynomial([0, -1, 0, 1])  # q^3 - q

    def test_monic_of_degree_n(self):
        for n, poly in enumerate(feit_fine(30)):
            assert poly.degree == n
            assert poly.leading == 1

    def test_known_class_counts_at_q2(self):
        # GL_n(F_2) class numbers: GL_2 ~ S_3, GL_3 ~ PSL(2,7), GL_4 ~ A_8.
        values = [poly.evaluate(2) for poly in feit_fine(6)]
        assert values == [1, 1, 3, 6, 14, 27, 60]

    def test_class_counts_at_q2_match_oeis(self):
        # Number of conjugacy classes of GL_n(F_2) for n <= 11, OEIS A006952.
        values = [poly.evaluate(2) for poly in feit_fine(11)]
        assert values == [1, 1, 3, 6, 14, 27, 60, 117, 246, 490, 1002, 1998]

    def test_census_cross_check(self):
        # The four GL_2 class families must add up to C_2(q) symbolically.
        assert census_class_count_polynomial() == feit_fine(2)[2]

    def test_recurrence_matches_euler_product(self, fresh_tables):
        assert feit_fine(40) == euler_product_class_counts(40) == log_derivative_class_counts(40)

    def test_matches_log_derivative_recurrence_at_cap(self, fresh_tables):
        n = qseries.MAX_CLASS_COUNT_N
        assert feit_fine(n) == log_derivative_class_counts(n)

    def test_overpartitions_bound_the_digits_at_cap(self):
        # Every coefficient of C_n is a signed count of terms of
        # prod (1 - t^r) sum_j q^j t^(rj), so |coefficient| <= pbar(n), the
        # t^n coefficient of prod (1 + t^r) / (1 - t^r); the packed kernel
        # needs them all below 2^63, its signed 64-bit digit.
        n = qseries.MAX_CLASS_COUNT_N
        pbar = overpartition_counts(n)
        assert pbar[:8] == [1, 2, 4, 8, 14, 24, 40, 64]
        assert pbar[200] == 12_055_596_613_448_604
        assert pbar[n] < 2**63
        assert memoryview(b"").cast(qseries._DIGIT).itemsize == 8
        assert all(max(map(abs, c.coeffs)) <= b for c, b in zip(feit_fine(n), pbar))

    def test_table_independent_of_call_order(self, fresh_tables):
        big = feit_fine(40)
        assert feit_fine(5) == big[:6]
        qseries._class_counts[:] = [P_ONE]
        assert feit_fine(5) == big[:6]
        assert feit_fine(40) == big
        # One n at a time: each call expands the product afresh at that size.
        qseries._class_counts[:] = [P_ONE]
        steps = [feit_fine(n)[n] for n in range(61)]
        qseries._class_counts[:] = [P_ONE]
        assert tuple(steps) == feit_fine(60)

    def test_narrow_digits_are_exact_while_they_fit(self, monkeypatch, fresh_tables):
        # 8-bit digits hold every coefficient of C_0..C_115; C_116 has one below -128.
        big = feit_fine(115)
        qseries._class_counts[:] = [P_ONE]
        monkeypatch.setattr(qseries, "_DIGIT", "b")
        assert feit_fine(115) == big

    @pytest.mark.parametrize(
        "name, corruption, n, match",
        [
            ("_DIGIT", "b", 116, r"C_116\(1\) is 255, not 0"),
            ("_times_one_minus", lambda s, m: None, 1, r"C_1\(1\) is 1, not 0"),
        ],
        ids=["narrow-digits", "no-numerator"],
    )
    def test_corrupted_kernel_is_integrity_error(self, monkeypatch, fresh_tables, name, corruption, n, match):
        monkeypatch.setattr(qseries, name, corruption)
        with pytest.raises(IntegrityError, match=match):
            feit_fine(n)

    def test_integrity_check_survives_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "from repstat import qseries\n"
            "from repstat.errors import IntegrityError\n"
            "qseries._DIGIT = 'b'\n"
            "try:\n"
            "    qseries.feit_fine(116)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "raised", out.stderr

    def test_size_cap(self):
        with pytest.raises(CapExceededError, match="exceeds the cap"):
            feit_fine(qseries.MAX_CLASS_COUNT_N + 1)


class TestGowSum:
    def test_closed_forms(self):
        assert gow_sum(1) == QPolynomial([-1, 1])  # q - 1
        assert gow_sum(2) == q_power(2) * (P_Q - P_ONE)  # q^2 (q-1)
        assert gow_sum(3) == q_power(2) * (q_power(3) - P_ONE) * (P_Q - P_ONE)

    def test_matches_pair_product_up_to_cap(self):
        for n in range(1, qseries.MAX_POLY_N + 1):
            assert gow_sum(n) == gow_sum_pairs(n)

    def test_refused_above_cap(self):
        start = time.monotonic()
        with pytest.raises(CapExceededError, match=f"^n={qseries.MAX_POLY_N + 1} exceeds the cap {qseries.MAX_POLY_N}$"):
            gow_sum(qseries.MAX_POLY_N + 1)
        assert time.monotonic() - start < 1.0

    def test_brute_force_grid(self):
        for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            assert gow_sum(n).evaluate(q) == symmetric_invertible_count(n, q)

    def test_extra_brute_force_points(self):
        assert symmetric_invertible_count(1, 3) == 2
        assert symmetric_invertible_count(2, 2) == 4
        assert symmetric_invertible_count(2, 3) == 18
        assert symmetric_invertible_count(2, 5) == gow_sum(2).evaluate(5)

    def test_non_prime_field_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            symmetric_invertible_count(2, 4)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            symmetric_invertible_count(4, 2)


class TestGlOrder:
    def test_small(self):
        assert gl_order(1) == QPolynomial([-1, 1])
        assert gl_order(2) == QPolynomial([0, 1, -1, -1, 1])  # q^4-q^3-q^2+q

    def test_gl2_f2_is_s3(self):
        assert gl_order(2).evaluate(2) == 6

    def test_matches_pair_product_up_to_cap(self):
        for n in range(1, qseries.MAX_POLY_N + 1):
            assert gl_order(n) == gl_order_pairs(n)

    def test_refused_above_cap(self):
        start = time.monotonic()
        with pytest.raises(CapExceededError, match=f"^n={qseries.MAX_POLY_N + 1} exceeds the cap {qseries.MAX_POLY_N}$"):
            gl_order(qseries.MAX_POLY_N + 1)
        assert time.monotonic() - start < 1.0

    def test_degree_n_squared(self):
        for n in range(1, 7):
            assert gl_order(n).degree == n * n


class TestGaussIdentity:
    def test_orders(self):
        assert gauss_identity_check(1)
        assert gauss_identity_check(10)
        assert gauss_identity_check(25)
        assert gauss_identity_check(qseries.MAX_GAUSS_ORDER)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_identity_check(0)
        with pytest.raises(CapExceededError):
            gauss_identity_check(qseries.MAX_GAUSS_ORDER + 1)

    @given(st.integers(min_value=0, max_value=10), st.data())
    def test_sparse_series_product_matches_dense(self, order, data):
        terms = st.lists(st.integers(min_value=-50, max_value=50), min_size=order + 1, max_size=order + 1)
        a, b = data.draw(terms), data.draw(terms)
        assert _int_series_mul(a, b, order) == dense_product(a, b)[: order + 1]

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=35), st.data())
    def test_slice_kernels_match_product_and_running_sum(self, order, m, data):
        terms = st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=order + 1, max_size=order + 1)
        s = data.draw(terms)
        binomial = [0] * (order + 1)
        binomial[0] = 1
        if m <= order:
            binomial[m] = -1
        times = list(s)
        _times_one_minus(times, m)
        assert times == _int_series_mul(s, binomial, order)
        over = list(s)
        _over_one_minus(over, m)
        running = list(s)
        for k in range(m, order + 1):
            running[k] += running[k - m]
        assert over == running
        _times_one_minus(over, m)
        assert over == s


class TestGamma:
    def test_single_term(self):
        assert gamma_q(2, 1).value == 1

    def test_seven_terms_exact(self):
        expected = (
            1
            + Fraction(1, 2)
            + Fraction(1, 8)
            + Fraction(1, 64)
            + Fraction(1, 1024)
            + Fraction(1, 32768)
            + Fraction(1, 2097152)
        )
        assert gamma_q(2, 7).value == expected

    def test_monotone_in_terms(self):
        values = [gamma_q(2, t).value for t in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_reciprocal_reference(self):
        est = gamma_q(2, 10)
        assert float(1 / est.value) == pytest.approx(0.6091497110662286, abs=1e-9)
        assert est.tail_bound < Fraction(1, 10**15)

    def test_tail_bound_contract(self):
        for q in (2, 3, Fraction(5, 2)):
            for terms in (1, 3, 6):
                est = gamma_q(q, terms)
                exponent = terms * (terms + 1) // 2
                if Fraction(q) >= 2:
                    assert est.tail_bound <= 2 * Fraction(q) ** (-exponent)
                # The bound really does dominate the tail.
                more = gamma_q(q, terms + 25).value
                assert more - est.value <= est.tail_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_q(1, 5)
        with pytest.raises(ValueError):
            gamma_q(2, 0)

    def test_bit_cap(self):
        # 40 terms reach q^820: 820 * 159 bits is within MAX_RATIO_BITS, 820 * 160 is not.
        assert gamma_q((1 << 159) - 1, 40).terms == 40
        start = time.monotonic()
        with pytest.raises(CapExceededError, match=r"820 \* bits\(q\)=131200 exceeds the cap 131072"):
            gamma_q(1 << 159, 40)
        with pytest.raises(CapExceededError):
            gamma_q(10**1000, 40)
        assert time.monotonic() - start < 1.0

    def test_bit_cap_for_a_fraction(self):
        with pytest.raises(CapExceededError):
            gamma_q(Fraction(1 << 159, (1 << 159) - 1), 40)
        assert gamma_q(Fraction((1 << 159) - 1, (1 << 159) - 2), 40).terms == 40


class TestLogConstantRatio:
    def test_gl1_is_one(self):
        for q in (2, 3, Fraction(7, 2)):
            assert log_constant_ratio(1, q) == 1

    def test_n2_q2(self):
        assert log_constant_ratio(2, 2) == Fraction(8, 9)

    def test_q1_rejected(self):
        with pytest.raises(ValueError, match="q must exceed 1"):
            log_constant_ratio(3, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            log_constant_ratio(n, 2)

    def test_close_to_inv_gamma_for_large_n(self):
        inv_gamma = 1 / gamma_q(2, 30).value
        for n in range(15, 21):
            est = gamma_q(2, 30)
            assert abs(log_constant_ratio(n, 2) - inv_gamma) < est.tail_bound + Fraction(1, 100)

    @pytest.mark.parametrize("q", [2, 3, 7, Fraction(3, 2)])
    def test_direct_evaluation_matches_polynomials(self, q):
        for n in range(1, 21):
            b = gow_sum(n).evaluate(Fraction(q))
            c = feit_fine(n)[n].evaluate(Fraction(q))
            d = gl_order(n).evaluate(Fraction(q))
            assert log_constant_ratio(n, q) == b * b / (c * d)

    def test_parity_monotone_approach(self):
        # The distance to 1/gamma(2) oscillates with the parity of n but
        # decreases strictly along each parity class (frozen behaviour of
        # the first full run; see the per-step counterexample |r_6| < |r_7|).
        inv_gamma = 1 / gamma_q(2, 30).value
        diffs = [abs(log_constant_ratio(n, 2) - inv_gamma) for n in range(1, 21)]
        odd = diffs[0::2]
        even = diffs[1::2]
        assert all(a > b for a, b in zip(odd, odd[1:]))
        assert all(a > b for a, b in zip(even, even[1:]))
        assert diffs[5] < diffs[6]  # n=6 beats n=7: not monotone per step


def census_rows(q, kind):
    return [row[1:] for row in gl2_census(q) if row[0] == kind]


class TestGl2Census:
    def test_q2_rep_rows(self):
        assert [(c, d) for c, d, _, _ in census_rows(2, "rep")] == [(1, 1), (1, 2), (0, 3), (1, 1)]
        assert census_rows(2, "check_rep_sum") == [(None, 6, 6, True)]

    def test_q3_class_rows(self):
        classes = census_rows(3, "class")
        printed = classes[:3] + census_rows(3, "class_printed_elliptic")
        assert sorted(s for _, s, _, _ in printed) == [1, 3, 8, 12]
        assert sorted(c for c, _, _, _ in printed) == [1, 2, 2, 3]
        # The class equation singles out q^2 - q, not (q^2-q)/2.
        assert classes[3][:2] == (3, 6)
        assert {s: ok for _, s, _, ok in census_rows(3, "elliptic_candidate")} == {6: True, 3: False}
        assert census_rows(3, "check_class_sum")[0][-1] is True

    def test_identities_across_q(self):
        for q in range(2, 12):
            checks = {row[0]: row[1:] for row in gl2_census(q) if row[0].startswith("check")}
            assert checks["check_rep_sum"][-1] and checks["check_class_sum"][-1]
            assert checks["check_class_count"][:2] == (q * q - 1, q * q - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gl2_census(1)
        with pytest.raises(CapExceededError, match="bits"):
            gl2_census(1 << qseries.MAX_CENSUS_Q_BITS)


def leading_pairs(q):
    """(2 dim^2, class size, ratio) for odd q: the SL_2 half-discrete-series
    dimensions (q +- 1)/2 against the PGL_2 order-2 class sizes q(q +- 1)/2.
    Each pair shares the leading term q^2/2."""
    pairs = []
    for dim, size in (((q + 1) // 2, q * (q + 1) // 2), ((q - 1) // 2, (q * q - q) // 2)):
        pairs.append((2 * dim * dim, size, Fraction(2 * dim * dim, size)))
    return pairs


def within_tolerance(q):
    return all(abs(ratio - 1) <= Fraction(5, q) for _, _, ratio in leading_pairs(q))


class TestLeadingTerms:
    def test_q3(self):
        pairs = leading_pairs(3)
        assert pairs[0][:2] == (8, 6)
        assert pairs[0][2] == Fraction(4, 3)
        assert within_tolerance(3)

    def test_grid_to_101(self):
        for q in range(3, 102, 2):
            assert within_tolerance(q)

    def test_ratio_tends_to_one(self):
        for _, _, ratio in leading_pairs(101):
            assert abs(ratio - 1) <= Fraction(5, 101)

    def test_symbolic_leading_terms(self):
        # Scale both sides by 4 to stay in integer polynomials: the pairs
        # (2 dim^2, class size) become (2(q+-1)^2, 2q(q+-1)), both with
        # leading coefficient 2, i.e. q^2/2 before scaling.
        plus = P_Q + P_ONE
        minus = P_Q - P_ONE
        for dim_side, class_side in ((2 * plus * plus, 2 * P_Q * plus), (2 * minus * minus, 2 * P_Q * minus)):
            assert dim_side.degree == class_side.degree == 2
            assert dim_side.leading == class_side.leading == 2
