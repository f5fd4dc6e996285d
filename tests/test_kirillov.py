"""Orbit method on the Heisenberg and 4x4 unitriangular groups.

The library counts orbit and class sizes from ranks over torus
representatives, both in one walk inside kirillov_report.  The oracles in
kirillov_oracles.py close the orbits instead: by dense matrix searches,
and by the sparse BFS engine the library used before the rank formulas.
"""

import os
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import repstat
from repstat import kirillov
from repstat.kirillov import (
    ALGEBRAS,
    HEIS3,
    MAX_STATES,
    UT4,
    UnsupportedCharacteristicError,
    _build_strictly_upper,
    _nil_algebra,
    check_prime,
    kirillov_report,
)
from repstat.symstats import CapExceededError, IntegrityError

from kirillov_oracles import (
    _all_states,
    bfs_coadjoint_orbits,
    bfs_conjugacy_classes,
    exp_element,
    log_element,
    oracle_coadjoint_orbits,
    oracle_conjugacy_classes,
)


class TestAlgebras:
    def test_presets(self):
        assert HEIS3.dim == 3 and HEIS3.nilpotency_class == 2 and HEIS3.derived_dim == 1
        assert UT4.dim == 6 and UT4.nilpotency_class == 3 and UT4.derived_dim == 3
        assert set(ALGEBRAS) == {"heis3", "ut4"}

    @pytest.mark.parametrize("m, dim, nilpotency_class, derived_dim", [(5, 10, 4, 6), (6, 15, 5, 10)])
    def test_larger_unitriangular(self, m, dim, nilpotency_class, derived_dim):
        # ut_m has class m - 1, and its derived algebra is every entry off the first superdiagonal.
        # Each nonzero basis bracket [E_hi, E_ij] = E_hj is one choice of h < i < j.
        alg = _build_strictly_upper(f"ut{m}", m)
        assert (alg.dim, alg.nilpotency_class, alg.derived_dim, len(alg.brackets)) == (
            dim,
            nilpotency_class,
            derived_dim,
            comb(m, 3),
        )

    def test_heis3_bracket(self):
        # [E12, E23] = E13 is the only nonzero basis bracket.
        assert HEIS3.positions == ((0, 1), (0, 2), (1, 2))
        assert HEIS3.brackets == ((0, 2, 1),)

    def test_broken_table_fails_jacobi(self):
        # [e_3, [e_0, e_1]] = [e_3, e_2] = -e_0, while the other two terms vanish.
        positions = ((0, 1), (0, 2), (0, 3), (1, 2))
        with pytest.raises(IntegrityError, match="Jacobi identity fails for broken"):
            _nil_algebra("broken", 4, positions, ((0, 1, 2), (2, 3, 0)))

    def test_broken_table_fails_nilpotency(self):
        # [e_0, e_1] = e_1 satisfies Jacobi, but the lower central series stalls at span(e_1).
        with pytest.raises(IntegrityError, match="broken is not nilpotent"):
            _nil_algebra("broken", 2, ((0, 1), (1, 2)), ((0, 1, 1),))


class TestExpLog:
    def test_zero_gives_identity(self):
        assert exp_element((0, 0, 0), HEIS3, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_single_generator(self):
        assert exp_element((1, 0, 0), HEIS3, 3) == ((1, 1, 0), (0, 1, 0), (0, 0, 1))

    def test_round_trip_heis3_full_group(self):
        for p in (3, 5, 7):
            check_prime(HEIS3, p)
            for coords in _all_states(3, p):
                assert log_element(exp_element(coords, HEIS3, p), HEIS3, p) == coords

    def test_round_trip_ut4_full_group(self):
        # exp is a bijection onto the unitriangular group for each p <= 7:
        # log inverts it on all p^6 coordinate vectors, and the counts match.
        for p in (5, 7):
            check_prime(UT4, p)
            seen = set()
            for coords in _all_states(6, p):
                mat = exp_element(coords, UT4, p)
                seen.add(mat)
                assert log_element(mat, UT4, p) == coords
            assert len(seen) == p**6


class TestOrbits:
    def test_heis3_p3(self):
        assert Counter(kirillov_report(HEIS3, 3).orbit_sizes) == {1: 9, 9: 2}

    def test_heis3_p5(self):
        assert Counter(kirillov_report(HEIS3, 5).orbit_sizes) == {1: 25, 25: 4}

    def test_sizes_partition_dual_space(self):
        for p in (3, 5):
            assert sum(kirillov_report(HEIS3, p).orbit_sizes) == p**3


class TestClasses:
    def test_heis3_p3(self):
        assert Counter(kirillov_report(HEIS3, 3).class_sizes) == {1: 3, 3: 8}

    def test_heis3_p5(self):
        assert Counter(kirillov_report(HEIS3, 5).class_sizes) == {1: 5, 5: 24}

    def test_center_is_fixed(self):
        sizes = kirillov_report(HEIS3, 3).class_sizes
        assert sizes.count(1) == 3  # identity plus the order-3 center


ORACLE_CASES = [(HEIS3, 3), (HEIS3, 5), (HEIS3, 7), (UT4, 5)]
BFS_CASES = [(HEIS3, p) for p in (3, 5, 7, 11, 13, 23, 29)] + [(UT4, 5), (UT4, 7)]


def _case_id(v):
    return getattr(v, "name", v)


class TestAgainstOracle:
    @pytest.mark.parametrize("alg, p", ORACLE_CASES, ids=_case_id)
    def test_conjugacy_classes(self, alg, p):
        assert kirillov_report(alg, p).class_sizes == oracle_conjugacy_classes(alg, p)

    @pytest.mark.parametrize("alg, p", ORACLE_CASES, ids=_case_id)
    def test_coadjoint_orbits(self, alg, p):
        assert kirillov_report(alg, p).orbit_sizes == oracle_coadjoint_orbits(alg, p)

    def test_ut4_p5_classes_by_hand(self):
        # For q = 5: q central classes of size 1, q^2 - 1 of size q,
        # q(q - 1)(q + 2) of size q^2 and (q - 1)^2 (q + 1) of size q^3.
        # The counts add up to 2q^3 + q^2 - 2q = 265, the sizes to q^6.
        expected = {1: 5, 5: 24, 25: 140, 125: 96}
        assert sum(expected.values()) == 265
        assert sum(size * count for size, count in expected.items()) == 5**6
        assert Counter(kirillov_report(UT4, 5).class_sizes) == expected

    def test_ut4_p5_orbits_by_hand(self):
        # q^3 fixed functionals, q^3 - q orbits of size q^2 and q^2 - q of
        # size q^4: the degrees 1, q, q^2 of the irreducible characters.
        assert Counter(kirillov_report(UT4, 5).orbit_sizes) == {1: 125, 25: 120, 625: 20}

    @pytest.mark.parametrize("alg, p", BFS_CASES, ids=_case_id)
    def test_rank_engine_matches_bfs(self, alg, p):
        report = kirillov_report(alg, p)
        assert report.orbit_sizes == bfs_coadjoint_orbits(alg, p)
        assert report.class_sizes == bfs_conjugacy_classes(alg, p)

    @pytest.mark.parametrize("q", [7, 11])
    def test_ut4_closed_forms(self, q):
        classes = {1: q, q: q**2 - 1, q**2: q * (q - 1) * (q + 2), q**3: (q - 1) ** 2 * (q + 1)}
        assert sum(classes.values()) == 2 * q**3 + q**2 - 2 * q
        report = kirillov_report(UT4, q)
        assert Counter(report.class_sizes) == classes
        assert Counter(report.orbit_sizes) == {1: q**3, q**2: q**3 - q, q**4: q**2 - q}

    @pytest.mark.parametrize("p", [11, 13])
    def test_heis3_closed_forms(self, p):
        # p central classes and p^2 - 1 of size p; p^2 linear characters
        # and p - 1 of degree p.
        report = kirillov_report(HEIS3, p)
        assert Counter(report.class_sizes) == {1: p, p: p**2 - 1}
        assert Counter(report.orbit_sizes) == {1: p**2, p**2: p - 1}
        assert len(report.class_sizes) == p**2 + p - 1


class TestGuards:
    def test_state_cap_bounds(self):
        assert 11**6 <= MAX_STATES < 13**6
        assert 113**3 <= MAX_STATES < 127**3

    @pytest.mark.parametrize("alg, p", [(UT4, 13), (UT4, 251), (HEIS3, 127), (HEIS3, 251)])
    def test_state_cap_refuses(self, alg, p):
        with pytest.raises(CapExceededError, match="states"):
            kirillov_report(alg, p)

    def test_check_prime_refuses_huge_p_at_once(self):
        # Trial division of 10^30 + 57 would run to about 10^15; the state
        # cap comes first, and refuses an even (non-prime) p the same way.
        for p in (10**30 + 57, 10**30 + 56):
            start = time.monotonic()
            with pytest.raises(CapExceededError, match=rf"^states {p}\^6=\d+ exceeds the cap {MAX_STATES}$"):
                check_prime(UT4, p)
            assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("p", [-251, -5, 0, 1])
    def test_check_prime_skips_the_cap_below_2(self, p):
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            check_prime(UT4, p)

    def test_small_characteristic_rejected(self):
        with pytest.raises(UnsupportedCharacteristicError):
            kirillov_report(HEIS3, 2)
        for p in (2, 3):
            with pytest.raises(UnsupportedCharacteristicError):
                kirillov_report(UT4, p)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            kirillov_report(HEIS3, 9)


class TestRankIntegrity:
    """Each check in the rank engine and the report fires on a corrupted helper."""

    def test_inexact_orbit_count(self, monkeypatch):
        real = kirillov._rank_mod_p
        monkeypatch.setattr(kirillov, "_rank_mod_p", lambda rows, p: real(rows, p) + 1)
        # heis3 has p^3 - p^2 functionals of rank 2, not a multiple of p^3.
        with pytest.raises(IntegrityError, match="do not split"):
            kirillov_report(HEIS3, 5)

    def test_sizes_must_partition_p_dim(self, monkeypatch):
        # The zero vector has rank 0 in both tallies: drop it from the class
        # tally alone, then from the walk, which the orbit tally checks first.
        real_counts = kirillov._rank_counts

        def drop_zero_class(alg, p):
            form_counts, ad_counts = real_counts(alg, p)
            return form_counts, {**ad_counts, 0: ad_counts[0] - 1}

        monkeypatch.setattr(kirillov, "_rank_counts", drop_zero_class)
        with pytest.raises(IntegrityError, match="sum to 124, not 5"):
            kirillov_report(HEIS3, 5)
        monkeypatch.undo()

        real = kirillov._torus_representatives

        def drop_zero_vector(alg, p):
            reps = real(alg, p)
            next(reps)
            yield from reps

        monkeypatch.setattr(kirillov, "_torus_representatives", drop_zero_vector)
        with pytest.raises(IntegrityError, match="sum to 124, not 5"):
            kirillov_report(HEIS3, 5)

    def test_orbits_must_equal_classes(self, monkeypatch):
        # heis3 at p = 5 has 29 of each; make every class a singleton.
        real = kirillov._rank_counts
        monkeypatch.setattr(kirillov, "_rank_counts", lambda alg, p: (real(alg, p)[0], {0: p**alg.dim}))
        with pytest.raises(IntegrityError, match="29 coadjoint orbits but 125 conjugacy classes"):
            kirillov_report(HEIS3, 5)

    def test_odd_form_rank_is_integrity_error(self, monkeypatch):
        # The ad_X tally of heis3 at p = 5, {rank 0: 5 vectors, rank 1: 120},
        # splits into whole orbits, sums to 125 and gives 29 orbits like the
        # class side, so only the check that B_f has even rank can fire.
        real = kirillov._rank_counts
        monkeypatch.setattr(kirillov, "_rank_counts", lambda alg, p: (real(alg, p)[1],) * 2)
        with pytest.raises(IntegrityError, match="orbit size 5 is not an even power of 5"):
            kirillov_report(HEIS3, 5)

    def test_odd_form_rank_check_survives_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "from repstat import kirillov\n"
            "from repstat.symstats import IntegrityError\n"
            "real = kirillov._rank_counts\n"
            "kirillov._rank_counts = lambda alg, p: (real(alg, p)[1],) * 2\n"
            "try:\n"
            "    kirillov.kirillov_report(kirillov.HEIS3, 5)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "raised", out.stderr

    def test_cli_exit_4_under_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys\n"
            "from repstat import cli, kirillov\n"
            "real = kirillov._rank_mod_p\n"
            "kirillov._rank_mod_p = lambda rows, p: real(rows, p) + 1\n"
            "sys.exit(cli.main(['kirillov', '--alg', 'heis3', '--p', '5']))\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 4, out.stderr
        assert out.stdout == "" and "internal invariant violation" in out.stderr


class TestReport:
    def test_heis3_p3(self):
        report = kirillov_report(HEIS3, 3)
        assert Counter(report.rep_dims) == {1: 9, 3: 2}
        assert sum(d * d for d in report.rep_dims) == 27
        assert report.match_kirillov
        assert not report.match_naive
        assert len(report.orbit_sizes) == len(report.class_sizes) == 11

    def test_fixed_orbits_count_abelianization(self):
        for alg, p in ((HEIS3, 3), (HEIS3, 5), (UT4, 5)):
            report = kirillov_report(alg, p)
            fixed = sum(1 for s in report.orbit_sizes if s == 1)
            assert fixed == p ** (alg.dim - alg.derived_dim)

    def test_ut4_p5(self):
        report = kirillov_report(UT4, 5)
        assert report.group_order == 5**6
        assert sum(report.orbit_sizes) == 5**6
        assert len(report.orbit_sizes) == len(report.class_sizes)
        # Published class count of the 4x4 unitriangular group: 2q^3+q^2-2q.
        assert len(report.class_sizes) == 2 * 125 + 25 - 10
        assert report.match_kirillov

    def test_orbit_sizes_even_p_powers(self):
        for alg, p in ((HEIS3, 3), (HEIS3, 7), (UT4, 5)):
            for size in kirillov_report(alg, p).orbit_sizes:
                e = 0
                while size % p == 0:
                    size //= p
                    e += 1
                assert size == 1 and e % 2 == 0

    def test_walks_the_representatives_once(self, monkeypatch):
        calls = []
        real = kirillov._torus_representatives

        def counted(alg, p):
            calls.append((alg.name, p))
            return real(alg, p)

        monkeypatch.setattr(kirillov, "_torus_representatives", counted)
        kirillov_report(UT4, 5)
        assert calls == [("ut4", 5)]
