"""Symmetric group statistics against independent brute-force oracles."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

import repstat
from repstat import symstats
from repstat.errors import CapExceededError, IntegrityError
from repstat.rsk import sample_plancherel
from repstat.partitions import (
    Partition, conjugate, enumerate_partitions, hook_lengths, partition_count,
)
from repstat.symstats import (
    MAX_HIST_BINS,
    MAX_SWEEP_N,
    angle_decay_constant,
    angle_report,
    class_size,
    cos_sq_exact,
    dimension,
    fraction_near_max,
    histogram,
    interval_counts,
    involution_count,
    layer_sums,
    level_maxima,
    ln_big,
    ln_fraction,
    log_mean_dimension_estimate,
    plancherel_mass,
    sweep,
    vk_ratio,
)

from sym_oracles import max_dimension


@lru_cache(maxsize=None)
def syt_count(shape):
    """Oracle: standard Young tableaux counted by corner removal.

    Completely independent of the hook-length formula.
    """
    if sum(shape) <= 1:
        return 1
    total = 0
    for i in range(len(shape)):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if shape[i] > below:
            new = list(shape)
            new[i] -= 1
            if new[-1] == 0:
                new.pop()
            total += syt_count(tuple(new))
    return total


def cycle_type(perm):
    """Cycle type of a permutation given in one-line notation on 1..n."""
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class TestDimension:
    def test_worked_example(self):
        assert dimension(Partition([5, 2])) == 14

    def test_trivial_and_sign(self):
        for n in range(1, 12):
            assert dimension(Partition([n])) == 1
            assert dimension(Partition([1] * n)) == 1

    def test_s3_squares(self):
        dims = [dimension(lam) for lam in enumerate_partitions(3)]
        assert sorted(d * d for d in dims) == [1, 1, 4]
        assert sum(d * d for d in dims) == 6

    def test_against_syt_oracle(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert dimension(lam) == syt_count(lam.parts)

    def test_conjugation_invariance(self):
        for n in range(1, 26):
            for lam in enumerate_partitions(n):
                assert dimension(lam) == dimension(conjugate(lam))


class TestClassSize:
    def test_worked_example(self):
        assert class_size(Partition([3, 2, 2, 2, 1])) == 25200

    def test_identity_class(self):
        for n in range(1, 10):
            assert class_size(Partition([1] * n)) == 1

    def test_s4_multiset(self):
        sizes = sorted(class_size(lam) for lam in enumerate_partitions(4))
        assert sizes == [1, 3, 6, 6, 8]

    def test_against_permutation_oracle(self):
        for n in range(1, 7):
            tally = {}
            for perm in permutations(range(1, n + 1)):
                t = cycle_type(perm)
                tally[t] = tally.get(t, 0) + 1
            for lam in enumerate_partitions(n):
                assert class_size(lam) == tally[lam.parts]


class TestInvolutions:
    def test_brute_force(self):
        for n in range(1, 8):
            brute = sum(
                1
                for perm in permutations(range(1, n + 1))
                if all(perm[perm[i] - 1] == i + 1 for i in range(n))
            )
            assert involution_count(n) == brute

    def test_examples(self):
        assert involution_count(0) == 1
        assert involution_count(3) == 4
        assert involution_count(4) == 10


class TestSweep:
    def test_n3_records(self):
        recs = list(sweep(3))
        assert [r.lam.parts for r in recs] == [(3,), (2, 1), (1, 1, 1)]
        assert [r.dim for r in recs] == [1, 2, 1]
        assert [r.class_size for r in recs] == [2, 3, 1]

    def test_n1(self):
        (rec,) = list(sweep(1))
        assert rec.dim == 1 and rec.class_size == 1

    def test_moment_identities(self):
        for n in range(1, 16):
            recs = list(sweep(n))
            assert sum(r.dim for r in recs) == involution_count(n)
            assert sum(r.dim**2 for r in recs) == factorial(n)
            assert sum(r.class_size for r in recs) == factorial(n)

    def test_log_fields(self):
        for rec in sweep(12):
            assert rec.log_dim_sq == pytest.approx(2 * math.log(rec.dim), rel=1e-9, abs=1e-12)
            assert rec.log_class == pytest.approx(math.log(rec.class_size), rel=1e-9, abs=1e-12)

    def test_log_fields_are_ln_big_bit_for_bit(self):
        # math.log differs from ln_big in the last bit for many of these
        # values, so an inlined log would move CSV bytes; pin the exact float.
        for n in range(1, 31):
            for rec in sweep(n):
                assert rec.log_dim_sq == 2.0 * ln_big(rec.dim), rec.lam
                assert rec.log_class == ln_big(rec.class_size), rec.lam

    def test_cap(self):
        with pytest.raises(CapExceededError) as err:
            sweep(51)
        assert "50" in str(err.value)

    @pytest.mark.parametrize("n, error", [(0, ValueError), (-1, ValueError), (MAX_SWEEP_N + 1, CapExceededError)])
    def test_records_refuse_bad_n(self, n, error):
        sweep.cache_clear()
        with pytest.raises(error):
            sweep(n)
        assert sweep.cache_info().currsize == 0
        # A refused n leaves the cached level in place.
        sweep(5)
        with pytest.raises(error):
            sweep(n)
        before = sweep.cache_info()
        sweep(5)
        assert sweep.cache_info().hits == before.hits + 1

    def test_n20_length_and_identity(self):
        recs = list(sweep(20))
        assert len(recs) == 627
        assert sum(r.dim**2 for r in recs) == factorial(20)


def _reverse_lex_oracle(n):
    """The list-slicing reverse-lex loop that enumerate_partitions used to run."""
    if n == 0:
        yield Partition()
        return
    parts = [n]
    while True:
        yield Partition(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        remainder = len(parts) - i
        parts = parts[:i] + [parts[i] - 1]
        while remainder > 0:
            chunk = min(parts[-1], remainder)
            parts.append(chunk)
            remainder -= chunk


class TestSweepKernel:
    """The tuple kernel of the sweep against the public nested-list path."""

    def test_records_match_hook_lengths_and_to_frequency(self):
        for n in range(1, 26):
            fact = factorial(n)
            for rec in sweep(n):
                hooks = math.prod(h for row in hook_lengths(rec.lam) for h in row)
                assert divmod(fact, hooks) == (rec.dim, 0)
                denom = math.prod(v**a * factorial(a) for v, a in Counter(rec.lam.parts).items())
                assert rec.class_size == fact // denom

    def test_sweep_matches_per_partition_functions(self):
        # dimension shares only the row step with the sweep, and class_size
        # nothing at all.
        for n in range(1, 26):
            for rec in sweep(n):
                assert dimension(rec.lam) == rec.dim
                assert class_size(rec.lam) == rec.class_size

    def test_enumeration_unchanged(self):
        for n in range(0, 21):
            got = list(enumerate_partitions(n))
            assert all(type(lam) is Partition for lam in got)
            assert got == list(_reverse_lex_oracle(n))

    def test_empty_partition(self):
        assert dimension(Partition()) == 1
        assert class_size(Partition()) == 1

    @pytest.mark.parametrize("n", [30, 40])
    def test_sorted_walk_is_enumeration_order(self, n):
        # The walk places each record at its rank; layer_sums' contiguous
        # blocks rest on this being exactly enumerate_partitions' reverse-lex order.
        recs = list(sweep(n))
        assert [rec.lam for rec in recs] == list(enumerate_partitions(n))
        assert {rec.lam.n for rec in recs} == {n}

    def test_plancherel_shapes_against_hook_lengths(self):
        # Shapes at n = 1000 carry dozens of column segments, which the
        # n <= 25 sweep comparison above never reaches.
        n = 1000
        fact = factorial(n)
        for shape, _ in sample_plancherel(n, 2024, 30):
            hooks = math.prod(h for row in hook_lengths(shape) for h in row)
            assert divmod(fact, hooks) == (dimension(shape), 0)
            denom = math.prod(v**a * factorial(a) for v, a in Counter(shape.parts).items())
            assert class_size(shape) == fact // denom


class TestSweepIntegrity:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        sweep.cache_clear()
        yield
        sweep.cache_clear()

    def test_hook_remainder(self, monkeypatch):
        real = symstats._top_row
        # Every row step times 11, a prime that does not divide 8!.
        monkeypatch.setattr(symstats, "_top_row", lambda *row: real(*row) * 11)
        with pytest.raises(IntegrityError, match="does not divide"):
            list(sweep(8))

    def test_class_denominator(self, monkeypatch):
        real = symstats.DimRecord
        # The walk carries the centralizer order inline, so the fault goes
        # where it lands: the 8-cycles' centralizer tripled (8 -> 24), which
        # leaves every class size positive but breaks the class equation.
        def tripled(lam, dim, size, *logs):
            return real(lam, dim, size // 3 if lam.parts == (8,) else size, *logs)

        monkeypatch.setattr(symstats, "DimRecord", tripled)
        with pytest.raises(IntegrityError, match="moment identities"):
            list(sweep(8))

    def test_involution_count(self, monkeypatch):
        monkeypatch.setattr(symstats, "involution_count", lambda n: 0)
        with pytest.raises(IntegrityError, match="moment identities"):
            list(sweep(8))

    def test_checks_survive_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "from repstat import cli, symstats\n"
            "real = symstats._top_row\n"
            "symstats._top_row = lambda *row: real(*row) * 11\n"
            "print(cli.main(['sym', 'sweep', '--n', '8']))\n"
            "symstats._top_row = real\n"
            "symstats.involution_count = lambda n: 0\n"
            "print(cli.main(['sym', 'sweep', '--n', '9']))\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.split() == ["4", "4"], out.stderr
        first, second = out.stderr.splitlines()
        assert "internal invariant violation: hook product does not divide n!" in first
        assert "internal invariant violation: moment identities failed at n=9" in second

    def test_maxdim_hook_remainder(self, monkeypatch):
        real = symstats._top_row
        monkeypatch.setattr(symstats, "_top_row", lambda *row: real(*row) * 11)
        with pytest.raises(IntegrityError, match=r"hook product does not divide n! for \[1\]"):
            level_maxima(8)

    def test_maxdim_involution_count(self, monkeypatch):
        monkeypatch.setattr(symstats, "involution_count", lambda n: 0)
        with pytest.raises(IntegrityError, match="moment identities failed at n=1$"):
            level_maxima(8)

    def test_maxdim_checks_survive_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "from repstat import cli, symstats\n"
            "real = symstats._top_row\n"
            "symstats._top_row = lambda *row: real(*row) * 11\n"
            "print(cli.main(['sym', 'maxdim', '--nmax', '8']))\n"
            "symstats._top_row = real\n"
            "symstats.involution_count = lambda n: 0\n"
            "print(cli.main(['sym', 'maxdim', '--nmax', '8']))\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.split() == ["4", "4"], out.stderr
        first, second = out.stderr.splitlines()
        assert "internal invariant violation: hook product does not divide n!" in first
        assert "internal invariant violation: moment identities failed at n=1" in second


class TestRankSlots:
    """sweep places each record by its reverse-lex rank, from bounded-part counts."""

    def test_bounded_counts_match_enumeration(self):
        table = symstats._bounded_counts(15)
        for k in range(16):
            lams = list(enumerate_partitions(k))
            for j in range(16):
                assert table[k][j] == sum(1 for lam in lams if not lam or lam[0] <= j), (k, j)

    @pytest.mark.parametrize("k, j, message", [(8, 8, "bounded-part counts give 23 partitions"), (3, 2, "rank slot")])
    def test_perturbed_counts_are_refused(self, monkeypatch, k, j, message):
        real = symstats._bounded_counts

        def perturbed(n):
            table = real(n)
            table[k][j] += 1
            return table

        monkeypatch.setattr(symstats, "_bounded_counts", perturbed)
        sweep.cache_clear()
        with pytest.raises(IntegrityError, match=message):
            sweep(8)
        sweep.cache_clear()


class TestLnBatch:
    """The batched logs of sweep are ln_big's floats, bit for bit."""

    @staticmethod
    def bits(floats):
        return [x.hex() for x in floats]

    def test_edge_values(self):
        xs = [1, 2**53 - 1, 2**53, 2**53 + 1, 2**64 - 1, 2**64, 2**64 + 1, factorial(50), factorial(50) ** 2]
        assert self.bits(symstats._ln_batch(xs)) == self.bits(map(ln_big, xs))

    def test_shift_table_is_the_clamped_shift(self):
        assert symstats._SHIFT == [max(b - 64, 0) for b in range(513)]

    def test_every_value_of_a_sweep(self):
        recs = sweep(30)
        for xs in ([r.dim for r in recs], [r.class_size for r in recs]):
            assert self.bits(symstats._ln_batch(xs)) == self.bits(map(ln_big, xs))


def test_sweep_cache_holds_one_level():
    sweep.cache_clear()
    for n in range(1, 31):
        list(sweep(n))
    assert sweep.cache_info().currsize == 1


class TestMaxDimension:
    def test_examples(self):
        m, arg = max_dimension(sweep(5))
        assert m == 6
        assert [a.parts for a in arg] == [(3, 1, 1)]
        assert max_dimension(sweep(1)) == (1, [Partition([1])])
        m4, arg4 = max_dimension(sweep(4))
        assert m4 == 3
        assert sorted(a.parts for a in arg4) == [(2, 1, 1), (3, 1)]

    def test_level_maxima_against_sweep(self):
        # max_dimension over each whole level is the oracle for the one walk.
        for n, (m, argmax, count) in enumerate(level_maxima(24), 1):
            level = sweep(n)
            assert (m, argmax) == max_dimension(level), n
            assert count == len(level) == partition_count(n)

    @pytest.mark.parametrize("nmax, error", [(0, ValueError), (MAX_SWEEP_N + 1, CapExceededError)])
    def test_level_maxima_refuses_bad_nmax(self, nmax, error):
        with pytest.raises(error):
            level_maxima(nmax)

    def test_argmax_closed_under_conjugation(self):
        for n in range(1, 20):
            _, arg = max_dimension(sweep(n))
            shapes = {a.parts for a in arg}
            assert all(conjugate(a).parts in shapes for a in arg)


class TestPlancherelMass:
    def test_examples(self):
        assert plancherel_mass(Partition([2])) == Fraction(1, 2)
        assert plancherel_mass(Partition([3, 1, 1])) == Fraction(3, 10)

    def test_total_mass_one(self):
        for n in range(1, 16):
            total = sum(plancherel_mass(lam) for lam in enumerate_partitions(n))
            assert total == 1


class TestLnBig:
    def test_matches_math_log_for_small(self):
        for x in (1, 2, 17, 10**15, factorial(20)):
            assert ln_big(x) == pytest.approx(math.log(x), rel=1e-14)

    def test_matches_mpmath_for_huge(self):
        mpmath.mp.prec = 120
        for x in (factorial(50), factorial(500), 17**3000, 2**100000 + 12345):
            ref = float(mpmath.log(mpmath.mpf(x)))
            assert ln_big(x) == pytest.approx(ref, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_big(0)

    def test_fraction_log(self):
        assert ln_fraction(Fraction(3, 4)) == pytest.approx(math.log(0.75), rel=1e-12)


class TestAngle:
    def test_n3(self):
        rep = angle_report(3)
        assert cos_sq_exact(3) == Fraction(16, 18)
        assert rep.cos_sq == pytest.approx(16 / 18, rel=1e-12)
        assert rep.sum_dim == 4 and rep.sum_dim_sq == 6 and rep.count == 3

    def test_n1_is_one(self):
        assert cos_sq_exact(1) == 1

    def test_not_bounded_by_the_sweep_cap(self):
        # The report builds no level, so only n >= 1 is checked.
        assert angle_report(MAX_SWEEP_N + 1).cos_sq == float(cos_sq_exact(MAX_SWEEP_N + 1))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            angle_report(n)

    def test_cos_sq_is_the_float_of_the_exact_ratio(self):
        # Integer true division rounds correctly, so it gives the exact ratio's float bit for bit.
        for n in range(1, 51):
            exact = Fraction(involution_count(n) ** 2, partition_count(n) * factorial(n))
            assert angle_report(n).cos_sq == float(exact)

    def test_cauchy_schwarz_range(self):
        for n in range(1, 30):
            assert 0 < cos_sq_exact(n) <= 1

    def test_monotone_decrease_sample(self):
        assert cos_sq_exact(30) < cos_sq_exact(20)

    def test_log_ratio_consistent_with_cos_sq(self):
        for n in (5, 15, 25):
            rep = angle_report(n)
            assert rep.log_ratio == pytest.approx(math.log(rep.cos_sq), rel=1e-9)


class TestMeanDimensionEstimate:
    def test_approaches_the_exact_mean(self):
        # ln I(n) - ln p(n) is the exact ln of the mean dimension; the estimate is 26% off at n = 5.
        errors = []
        for n in (20, 30, 40, 50):
            exact = ln_big(involution_count(n)) - ln_big(partition_count(n))
            errors.append(abs(log_mean_dimension_estimate(n) - exact) / exact)
        assert max(errors) <= 0.01
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestIntervals:
    def test_full_window_holds_everything(self):
        counts = interval_counts(5, 0.0, 1.0)
        assert counts.count_dim_sq == 7 and counts.count_class == 7

    def test_top_window_empty(self):
        counts = interval_counts(10, 0.99, 1.0)
        assert counts.count_dim_sq == 0

    def test_figure_windows_frozen(self):
        # Frozen from the first full enumeration at n=20.
        counts = interval_counts(20, 0.4, 0.8)
        assert (counts.count_dim_sq, counts.count_class) == (563, 582)
        counts = interval_counts(20, 0.2, 0.6)
        assert (counts.count_dim_sq, counts.count_class) == (489, 489)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_counts(5, 0.8, 0.2)


class TestLayerSums:
    def test_largest_part_n(self):
        for n in (5, 9, 14):
            k, a, b = layer_sums(n)[n - 1]
            assert k == n
            assert a == 0.0
            assert b == pytest.approx(math.log(factorial(n - 1)), rel=1e-12)

    def test_five_five(self):
        _, _, b = layer_sums(5)[4]
        assert b == pytest.approx(math.log(24), rel=1e-12)

    def test_layers_partition_the_sums(self):
        n = 12
        total_a = sum(a for _, a, _ in layer_sums(n))
        total_b = sum(b for _, _, b in layer_sums(n))
        ref_a = sum(rec.log_dim_sq for rec in sweep(n))
        ref_b = sum(rec.log_class for rec in sweep(n))
        assert total_a == pytest.approx(ref_a, rel=1e-12)
        assert total_b == pytest.approx(ref_b, rel=1e-12)

    def test_equals_in_order_sums_of_the_level(self):
        # Bit-for-bit: each layer adds its records in enumeration order with +=.
        for n in range(1, 21):
            rows = {k: [k, 0.0, 0.0] for k in range(1, n + 1)}
            for rec in sweep(n):
                rows[rec.lam[0]][1] += rec.log_dim_sq
                rows[rec.lam[0]][2] += rec.log_class
            layers = layer_sums(n)
            assert layers == [tuple(row) for row in rows.values()]
            assert [k for k, _, _ in layers] == list(range(1, n + 1))


class TestFractionNearMax:
    def test_n5_half(self):
        c, _ = fraction_near_max(5, Fraction(1, 2))
        assert c == Fraction(5, 7)

    def test_argmax_always_counted(self):
        for n in (3, 8, 13):
            c, _ = fraction_near_max(n, Fraction(99, 100))
            assert c >= Fraction(1, partition_count(n))

    def test_forty_below_twenty(self):
        c40, _ = fraction_near_max(40, Fraction(1, 2))
        c20, _ = fraction_near_max(20, Fraction(1, 2))
        assert c40 < c20

    def test_rise_from_ten_to_eleven_against_syt_oracle(self):
        # The fraction is not monotone in n: 4/21 at n=10 < 11/56 at n=11.
        for n, expected in ((10, Fraction(4, 21)), (11, Fraction(11, 56))):
            dims = [syt_count(lam.parts) for lam in enumerate_partitions(n)]
            m = max(dims)
            near = sum(1 for d in dims if 2 * d >= m)
            c, _ = fraction_near_max(n, Fraction(1, 2))
            assert c == Fraction(near, len(dims)) == expected

    def test_decay_constant_closed_form(self):
        a0 = angle_decay_constant()
        assert a0 == math.pi * math.sqrt(2.0 / 3.0) - 2.0
        assert a0 == pytest.approx(0.56510, abs=5e-6)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            fraction_near_max(5, Fraction(3, 2))


class TestVkRatio:
    @staticmethod
    def ratio(n):
        return vk_ratio(n, max_dimension(sweep(n))[0])

    def test_n5(self):
        assert self.ratio(5) == pytest.approx(-math.log(36 / 120) / math.sqrt(5), rel=1e-9)
        assert self.ratio(5) == pytest.approx(0.538, abs=5e-4)

    def test_n1_zero(self):
        assert self.ratio(1) == 0.0

    def test_window_and_frozen_values(self):
        # Band plus point regressions frozen from the first full run.
        frozen = {10: 0.574533075, 20: 0.819812753, 30: 0.791279583, 40: 0.863013234}
        for n in range(10, 41):
            r = self.ratio(n)
            assert 0.3 < r < 1.5
            if n in frozen:
                assert r == pytest.approx(frozen[n], abs=1e-6)


class TestHistogram:
    def test_trivial_example(self):
        hist = histogram([0.0, 1.0, 2.0, 3.0], 2)
        assert hist.bin_edges == (0.0, 1.5, 3.0)
        assert hist.counts == (2, 2)

    def test_conservation_on_sweep_data(self):
        values = [rec.log_dim_sq for rec in sweep(20)]
        hist = histogram(values, 20)
        assert sum(hist.counts) == 627

    def test_interior_edge_goes_right(self):
        hist = histogram([0.0, 1.0, 2.0], 2)
        # 1.0 sits on the interior edge, so it lands in the right bin.
        assert hist.counts == (1, 2)

    def test_degenerate_range_single_bin(self):
        hist = histogram([4.0] * 9, 5)
        assert len(hist.counts) == 1
        assert hist.counts[0] == 9
        assert hist.bin_edges[0] < 4.0 < hist.bin_edges[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([], 3)

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan, 0.0], [math.inf, 0.0], [-1e308, 1e308]])
    def test_rejects_nonfinite_range(self, values):
        # Edges over such data would be nan or inf, and bisection would bin silently.
        with pytest.raises(ValueError, match="finite"):
            histogram(values, 2)

    def test_bins_cap(self):
        assert len(histogram([0.0, 1.0], MAX_HIST_BINS).counts) == MAX_HIST_BINS

        def values():
            raise AssertionError("values consumed before the bins check")
            yield

        with pytest.raises(CapExceededError, match="bins=10001 exceeds the cap 10000"):
            histogram(values(), MAX_HIST_BINS + 1)

    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60),
        st.integers(1, 500),
    )
    def test_counts_follow_edge_rule(self, values, bins):
        try:
            hist = histogram(values, bins)
        except ValueError as exc:
            # Refused only when a bin is a few ulps wide, so that rounding
            # can merge neighbouring edges.
            assert "too narrow" in str(exc)
            lo, hi = min(values), max(values)
            assert hi - lo <= 16 * bins * math.ulp(max(abs(lo), abs(hi)))
            return
        if len(hist.counts) == 1:
            assert hist.counts == (len(values),)
            return
        assert all(a < b for a, b in zip(hist.bin_edges, hist.bin_edges[1:]))
        expected = [0] * bins
        for v in values:
            # The last edge at or below v opens its bin; the maximum goes to the last bin.
            expected[max(i for i in range(bins) if hist.bin_edges[i] <= v)] += 1
        assert hist.counts == tuple(expected)

    def test_edges_strictly_increasing(self):
        for bins in (1, 3, 7):
            hist = histogram([0.1, 0.4, 0.40001, 2.5], bins)
            assert all(a < b for a, b in zip(hist.bin_edges, hist.bin_edges[1:]))
            assert sum(hist.counts) == 4

    @pytest.mark.parametrize(
        "values, bins", [([1e16, 1e16 + 2.0], 4), ([0.0, 5e-324], 2), ([1e17], 3), ([2.0**53], 1)]
    )
    def test_rejects_range_too_narrow_for_bins(self, values, bins):
        # Equal-width edges over these ranges round onto each other, which
        # would put the minimum past the first bin; so do the unit bin's
        # edges around constant data past 2^53.
        with pytest.raises(ValueError, match="too narrow for"):
            histogram(values, bins)
