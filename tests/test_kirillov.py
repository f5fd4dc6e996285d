"""Orbit method on the Heisenberg and 4x4 unitriangular groups.

The library closes orbits of sparse linear maps on integer state codes.
The oracles here do it the slow, obvious way instead: dense matrices,
conjugation by the elementary generators, and tuple states.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repstat
from repstat.kirillov import (
    ALGEBRAS,
    HEIS3,
    MAX_STATES,
    UT4,
    UnsupportedCharacteristicError,
    _even_p_power_root,
    coadjoint_orbits,
    conjugacy_classes,
    exp_element,
    kirillov_report,
    log_element,
)
from repstat.symstats import CapExceededError, IntegrityError


def _mat_mul(a, b, p):
    rng = range(len(a))
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in rng) % p for j in rng) for i in rng)


def _matrix(alg, coords, diag, p):
    m = alg.matrix_size
    mat = [[diag if i == j else 0 for j in range(m)] for i in range(m)]
    for (i, j), v in zip(alg.positions, coords):
        mat[i][j] = v % p
    return tuple(tuple(row) for row in mat)


def _coords(alg, mat):
    return tuple(mat[i][j] for i, j in alg.positions)


def _all_states(dim, p):
    for code in range(p**dim):
        coords = []
        for _ in range(dim):
            code, v = divmod(code, p)
            coords.append(v)
        yield tuple(coords)


def _elementary_pairs(alg, p):
    """(I + E_ij, I - E_ij) for every strictly-upper position (i, j)."""
    pairs = []
    for k in range(alg.dim):
        unit = [0] * alg.dim
        unit[k] = 1
        minus = [0] * alg.dim
        minus[k] = -1
        pairs.append((_matrix(alg, unit, 1, p), _matrix(alg, minus, 1, p)))
    return pairs


def _closure_sizes(states, step):
    """Sorted sizes of the classes of the equivalence generated by step."""
    seen = set()
    sizes = []
    for start in states:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        size = 1
        while stack:
            for image in step(stack.pop()):
                if image not in seen:
                    seen.add(image)
                    size += 1
                    stack.append(image)
        sizes.append(size)
    return tuple(sorted(sizes))


def oracle_conjugacy_classes(alg, p):
    """Class sizes by conjugating unitriangular matrices g x g^-1."""
    pairs = _elementary_pairs(alg, p)
    group = (_matrix(alg, coords, 1, p) for coords in _all_states(alg.dim, p))
    return _closure_sizes(group, lambda x: [_mat_mul(_mat_mul(g, x, p), ginv, p) for g, ginv in pairs])


def oracle_coadjoint_orbits(alg, p):
    """Orbit sizes of lam -> lam(g^-1 . g) through dense rows of Ad(g^-1)."""
    rng = range(alg.dim)
    maps = []
    for g, ginv in _elementary_pairs(alg, p):
        basis = (_matrix(alg, [int(j == k) for j in rng], 0, p) for k in rng)
        maps.append([_coords(alg, _mat_mul(_mat_mul(ginv, b, p), g, p)) for b in basis])

    def step(lam):
        return [tuple(sum(rows[j][k] * lam[k] for k in rng) % p for j in rng) for rows in maps]

    return _closure_sizes(_all_states(alg.dim, p), step)


class TestAlgebras:
    def test_presets(self):
        assert HEIS3.dim == 3 and HEIS3.nilpotency_class == 2 and HEIS3.derived_dim == 1
        assert UT4.dim == 6 and UT4.nilpotency_class == 3 and UT4.derived_dim == 3
        assert set(ALGEBRAS) == {"heis3", "ut4"}

    def test_heis3_bracket(self):
        # [E12, E23] = E13 is the only nonzero basis bracket.
        assert HEIS3.positions == ((0, 1), (0, 2), (1, 2))
        assert HEIS3.brackets == (((0, 2), ((1, 1),)),)


class TestExpLog:
    def test_zero_gives_identity(self):
        assert exp_element((0, 0, 0), HEIS3, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_single_generator(self):
        assert exp_element((1, 0, 0), HEIS3, 3) == ((1, 1, 0), (0, 1, 0), (0, 0, 1))

    @staticmethod
    def _all_coords(dim, p):
        for code in range(p**dim):
            coords = []
            c = code
            for _ in range(dim):
                c, v = divmod(c, p)
                coords.append(v)
            yield tuple(coords)

    def test_round_trip_heis3_full_group(self):
        for p in (3, 5, 7):
            for coords in self._all_coords(3, p):
                assert log_element(exp_element(coords, HEIS3, p), HEIS3, p) == coords

    def test_round_trip_ut4_full_group(self):
        # exp is a bijection onto the unitriangular group for each p <= 7:
        # log inverts it on all p^6 coordinate vectors, and the counts match.
        for p in (5, 7):
            seen = set()
            for coords in self._all_coords(6, p):
                mat = exp_element(coords, UT4, p)
                seen.add(mat)
                assert log_element(mat, UT4, p) == coords
            assert len(seen) == p**6

    def test_small_characteristic_rejected(self):
        with pytest.raises(UnsupportedCharacteristicError):
            exp_element((0, 0, 0), HEIS3, 2)
        for p in (2, 3):
            with pytest.raises(UnsupportedCharacteristicError):
                exp_element((0,) * 6, UT4, p)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            exp_element((0, 0, 0), HEIS3, 9)


class TestOrbits:
    def test_heis3_p3(self):
        assert Counter(coadjoint_orbits(HEIS3, 3)) == {1: 9, 9: 2}

    def test_heis3_p5(self):
        assert Counter(coadjoint_orbits(HEIS3, 5)) == {1: 25, 25: 4}

    def test_sizes_partition_dual_space(self):
        for p in (3, 5):
            assert sum(coadjoint_orbits(HEIS3, p)) == p**3


class TestClasses:
    def test_heis3_p3(self):
        assert Counter(conjugacy_classes(HEIS3, 3)) == {1: 3, 3: 8}

    def test_heis3_p5(self):
        assert Counter(conjugacy_classes(HEIS3, 5)) == {1: 5, 5: 24}

    def test_center_is_fixed(self):
        sizes = conjugacy_classes(HEIS3, 3)
        assert sizes.count(1) == 3  # identity plus the order-3 center


ORACLE_CASES = [(HEIS3, 3), (HEIS3, 5), (HEIS3, 7), (UT4, 5)]


class TestAgainstOracle:
    @pytest.mark.parametrize("alg, p", ORACLE_CASES, ids=lambda v: getattr(v, "name", v))
    def test_conjugacy_classes(self, alg, p):
        assert conjugacy_classes(alg, p) == oracle_conjugacy_classes(alg, p)

    @pytest.mark.parametrize("alg, p", ORACLE_CASES, ids=lambda v: getattr(v, "name", v))
    def test_coadjoint_orbits(self, alg, p):
        assert coadjoint_orbits(alg, p) == oracle_coadjoint_orbits(alg, p)

    def test_ut4_p5_classes_by_hand(self):
        # For q = 5: q central classes of size 1, q^2 - 1 of size q,
        # q(q - 1)(q + 2) of size q^2 and (q - 1)^2 (q + 1) of size q^3.
        # The counts add up to 2q^3 + q^2 - 2q = 265, the sizes to q^6.
        expected = {1: 5, 5: 24, 25: 140, 125: 96}
        assert sum(expected.values()) == 265
        assert sum(size * count for size, count in expected.items()) == 5**6
        assert Counter(conjugacy_classes(UT4, 5)) == expected

    def test_ut4_p5_orbits_by_hand(self):
        # q^3 fixed functionals, q^3 - q orbits of size q^2 and q^2 - q of
        # size q^4: the degrees 1, q, q^2 of the irreducible characters.
        assert Counter(coadjoint_orbits(UT4, 5)) == {1: 125, 25: 120, 625: 20}


class TestGuards:
    def test_state_cap_bounds(self):
        assert 11**6 <= MAX_STATES < 13**6
        assert 113**3 <= MAX_STATES < 127**3

    @pytest.mark.parametrize("alg, p", [(UT4, 13), (UT4, 251), (HEIS3, 127), (HEIS3, 251)])
    def test_state_cap_refuses(self, alg, p):
        for engine in (coadjoint_orbits, conjugacy_classes):
            with pytest.raises(CapExceededError, match="states"):
                engine(alg, p)

    def test_odd_p_power_is_integrity_error(self):
        p = 5
        with pytest.raises(IntegrityError):
            _even_p_power_root(2 * p**2, p)
        with pytest.raises(IntegrityError):
            _even_p_power_root(p**3, p)
        assert _even_p_power_root(p**4, p) == p**2

    def test_integrity_check_survives_optimize_flag(self):
        src = str(Path(repstat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "from repstat.kirillov import _even_p_power_root\n"
            "from repstat.symstats import IntegrityError\n"
            "try:\n"
            "    _even_p_power_root(50, 5)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "raised", out.stderr


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
