"""Coadjoint orbits versus conjugacy classes for small unitriangular groups.

For a unitriangular group N over F_p with Lie algebra n (strictly upper
triangular matrices), the orbit method matches irreducible representations
with coadjoint orbits: each orbit has size d^2 for the corresponding
irreducible dimension d, because the orbit is a symplectic F_p-space and a
maximal isotropic subspace has half its dimension.  This module verifies
that correspondence exhaustively, and also checks that the cruder hope
"d^2 multiset == conjugacy class size multiset" fails already for the
Heisenberg group.

Both tables are exhaustive closures of a linear action on F_p^dim, run by
one engine over all p^dim coordinate vectors.  Coadjoint orbits are the
orbits of the transposed adjoint action on functionals.  Conjugacy classes
need no exp/log step: for g in the group and X strictly upper triangular,
g(I + X)g^-1 = I + gXg^-1, so the classes are the orbits of X -> gXg^-1
on the strictly-upper coordinates.  Each generator I + E_(i,j) moves only
one or two coordinates, so the engine applies it as digit updates to an
integer state code.  The dense matrix searches it replaces are kept in
tests/test_kirillov.py as the oracles that both tables are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .symstats import CapExceededError, IntegrityError

# Largest p^dim the orbit engine will sweep: ut4 up to p = 11, heis3 up
# to p = 113.  Its visited array takes one byte per state.
MAX_STATES = 2_000_000


class UnsupportedCharacteristicError(ValueError):
    """The truncated exp/log series needs p larger than the nilpotency class."""


def _bracket_entries(a: tuple[int, int], b: tuple[int, int]):
    """Commutator [E_a, E_b] of elementary matrices as {position: coeff}."""
    (i, j), (k, l) = a, b
    out: dict[tuple[int, int], int] = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return out


@dataclass(frozen=True)
class NilAlgebra:
    """Strictly upper triangular matrices of a fixed size, as a Lie algebra.

    Basis vectors are the elementary matrices E_(i,j) for i < j, listed in
    lexicographic position order; coordinates of an algebra element are
    simply its strictly-upper entries.  Structure constants are integers,
    reduced mod p only at use time.
    """

    name: str
    matrix_size: int
    dim: int
    positions: tuple[tuple[int, int], ...]
    brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    nilpotency_class: int
    derived_dim: int


def _build_strictly_upper(name: str, m: int) -> NilAlgebra:
    positions = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    index = {pos: k for k, pos in enumerate(positions)}
    dim = len(positions)

    def bracket_vec(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for pos, c in _bracket_entries(positions[a], positions[b]).items():
                    k = index[pos]
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}

    basis = [{k: 1} for k in range(dim)]
    brackets = []
    for a in range(dim):
        for b in range(a + 1, dim):
            vec = bracket_vec(basis[a], basis[b])
            if vec:
                brackets.append(((a, b), tuple(sorted(vec.items()))))

    # Jacobi identity over the integers, hence over every F_p at once.
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                acc: dict[int, int] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for k, v in bracket_vec(basis[x], bracket_vec(basis[y], basis[z])).items():
                        acc[k] = acc.get(k, 0) + v
                if any(acc.values()):
                    raise IntegrityError(f"Jacobi identity fails for {name}")

    # Lower central series by index spans (each basis bracket lands on a
    # single basis vector here, so spans are plain index sets).
    for pair, vec in brackets:
        if len(vec) != 1:
            raise IntegrityError(f"{name}: bracket of basis pair {pair} is not a single basis vector")
    layer = set(range(dim))
    series = [layer]
    while layer:
        nxt = set()
        for a in range(dim):
            for b in layer:
                u, v = (a, b) if a < b else (b, a)
                if a != b:
                    for (pair, vec) in brackets:
                        if pair == (u, v):
                            nxt.update(k for k, _ in vec)
        series.append(nxt)
        if nxt == layer:
            raise IntegrityError(f"{name} is not nilpotent")
        layer = nxt
    nilpotency_class = len(series) - 1
    derived_dim = len(series[1])
    return NilAlgebra(
        name=name,
        matrix_size=m,
        dim=dim,
        positions=positions,
        brackets=tuple(brackets),
        nilpotency_class=nilpotency_class,
        derived_dim=derived_dim,
    )


HEIS3 = _build_strictly_upper("heis3", 3)
UT4 = _build_strictly_upper("ut4", 4)
ALGEBRAS = {"heis3": HEIS3, "ut4": UT4}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(alg: NilAlgebra, p: int) -> None:
    """Admissibility: prime p with p > nilpotency class.

    The truncated exponential divides by k! for k up to the class, so
    those factorials must be invertible mod p.  The boundary cases p = 2
    (heis3) and p in {2, 3} (ut4) are exactly where exp/log break down.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if p <= alg.nilpotency_class:
        raise UnsupportedCharacteristicError(
            f"{alg.name} needs p > {alg.nilpotency_class} for the truncated exp/log "
            f"series (denominators 1..{alg.nilpotency_class} must be invertible); got p={p}"
        )


def _identity(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _mat_mul(a, b, p: int):
    m = len(a)
    rng = range(m)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) % p for j in rng) for i in rng
    )


def _mat_add(a, b, scale: int, p: int):
    m = len(a)
    return tuple(
        tuple((a[i][j] + scale * b[i][j]) % p for j in range(m)) for i in range(m)
    )


def _coords_to_matrix(coords, alg: NilAlgebra, p: int, unipotent: bool = False):
    """The strictly upper matrix X with these coordinates, or I + X if unipotent."""
    diag = 1 if unipotent else 0
    mat = [[diag if i == j else 0 for j in range(alg.matrix_size)] for i in range(alg.matrix_size)]
    for k, (i, j) in enumerate(alg.positions):
        mat[i][j] = coords[k] % p
    return tuple(tuple(row) for row in mat)


def _matrix_to_coords(mat, alg: NilAlgebra) -> tuple[int, ...]:
    return tuple(mat[i][j] for i, j in alg.positions)


def exp_element(coords, alg: NilAlgebra, p: int):
    """exp of the algebra element with the given coordinates, as a matrix.

    Truncated series I + X + X^2/2! + ... ; it terminates because X is
    nilpotent of degree at most the matrix size.
    """
    check_prime(alg, p)
    x = _coords_to_matrix(coords, alg, p)
    result = _identity(alg.matrix_size)
    power = _identity(alg.matrix_size)
    kfact = 1
    for k in range(1, alg.matrix_size):
        power = _mat_mul(power, x, p)
        kfact *= k
        result = _mat_add(result, power, pow(kfact, -1, p), p)
    return result


def log_element(mat, alg: NilAlgebra, p: int) -> tuple[int, ...]:
    """Coordinates of log of a unitriangular matrix; inverse of exp_element."""
    check_prime(alg, p)
    m = alg.matrix_size
    y = tuple(
        tuple((mat[i][j] - (1 if i == j else 0)) % p for j in range(m)) for i in range(m)
    )
    acc = tuple(tuple(0 for _ in range(m)) for _ in range(m))
    power = _identity(m)
    for k in range(1, m):
        power = _mat_mul(power, y, p)
        sign = 1 if k % 2 == 1 else -1
        acc = _mat_add(acc, power, sign * pow(k, -1, p) % p, p)
    return _matrix_to_coords(acc, alg)


def _generators(alg: NilAlgebra, p: int):
    """Elementary generators I + E_(i,j), which generate the whole group.

    Each comes paired with its inverse I - E_(i,j), as E_(i,j)^2 = 0.
    """
    gens = []
    for k in range(alg.dim):
        coords = [0] * alg.dim
        coords[k] = 1
        g = _coords_to_matrix(coords, alg, p, unipotent=True)
        coords[k] = -1
        gens.append((g, _coords_to_matrix(coords, alg, p, unipotent=True)))
    return gens


def _conjugation_images(alg: NilAlgebra, p: int, inverse: bool):
    """Per generator g, the coordinates of g B_k g^-1 for each basis matrix B_k.

    With inverse=True the conjugation is g^-1 B_k g instead.
    """
    dim = alg.dim
    basis = [_coords_to_matrix([int(j == k) for j in range(dim)], alg, p) for k in range(dim)]
    images = []
    for g, ginv in _generators(alg, p):
        left, right = (ginv, g) if inverse else (g, ginv)
        images.append([_matrix_to_coords(_mat_mul(_mat_mul(left, b, p), right, p), alg) for b in basis])
    return images


def _check_states(p: int, dim: int) -> None:
    """Refuse p^dim above MAX_STATES, before the trial-division primality test."""
    total = p**dim
    if p > 1 and total > MAX_STATES:
        raise CapExceededError(
            total, MAX_STATES, f"{p}^{dim} = {total} states exceed the orbit engine's cap {MAX_STATES}"
        )


def _linear_orbits(maps, p: int, dim: int) -> tuple[int, ...]:
    """Sorted orbit sizes of the group generated by linear maps of F_p^dim.

    Each map is a dim x dim matrix M acting by lam -> M lam.  A vector is
    kept as its integer code sum_j lam_j p^j.  Only the nonzero entries of
    M - I are stored, so applying a map to a decoded vector touches just
    the coordinates it changes, adding (new - old) * p^j to the code.
    Orbits are closed depth-first under the maps, and the sizes must
    partition p^dim.
    """
    total = p**dim
    weights = [p**j for j in range(dim)]
    moves_per_map = []
    for m in maps:
        moves = []
        for j, row in enumerate(m):
            deltas = [(v - (j == k)) % p for k, v in enumerate(row)]
            terms = tuple((k, c) for k, c in enumerate(deltas) if c)
            if terms:
                moves.append((j, weights[j], terms))
        if moves:
            moves_per_map.append(moves)
    visited = bytearray(total)
    sizes = []
    for start in range(total):
        if visited[start]:
            continue
        visited[start] = 1
        stack = [start]
        size = 1
        while stack:
            code = stack.pop()
            lam = []
            rest = code
            for _ in range(dim):
                rest, v = divmod(rest, p)
                lam.append(v)
            for moves in moves_per_map:
                image = code
                for j, weight, terms in moves:
                    old = lam[j]
                    new = old
                    for k, c in terms:
                        new += c * lam[k]
                    image += (new % p - old) * weight
                if not visited[image]:
                    visited[image] = 1
                    size += 1
                    stack.append(image)
        sizes.append(size)
    if sum(sizes) != total:
        raise IntegrityError(f"orbit sizes sum to {sum(sizes)}, not {p}^{dim}")
    return tuple(sorted(sizes))


@lru_cache(maxsize=None)
def coadjoint_orbits(alg: NilAlgebra, p: int) -> tuple[int, ...]:
    """Orbit sizes of the coadjoint action on all p^dim functionals.

    A functional is a coordinate vector in the dual basis; g sends lam to
    lam(g^-1 . g), so lam'_j = sum_k rows[j][k] lam_k where rows[j] holds
    the coordinates of g^-1 B_j g.  The sizes partition p^dim.
    """
    _check_states(p, alg.dim)
    check_prime(alg, p)
    return _linear_orbits(_conjugation_images(alg, p, inverse=True), p, alg.dim)


@lru_cache(maxsize=None)
def conjugacy_classes(alg: NilAlgebra, p: int) -> tuple[int, ...]:
    """Conjugacy class sizes of the unitriangular group.

    The element I + X is enumerated by the strictly-upper coordinates of X,
    and g(I + X)g^-1 = I + gXg^-1, so the classes are the orbits of the
    conjugation action on those coordinates: column k of its matrix holds
    the coordinates of g B_k g^-1.  The sizes partition p^dim.
    """
    _check_states(p, alg.dim)
    check_prime(alg, p)
    maps = [tuple(zip(*images)) for images in _conjugation_images(alg, p, inverse=False)]
    return _linear_orbits(maps, p, alg.dim)


@dataclass(frozen=True)
class OrbitReport:
    algebra: str
    p: int
    group_order: int
    orbit_sizes: tuple[int, ...]
    class_sizes: tuple[int, ...]
    rep_dims: tuple[int, ...]  # square roots of the orbit sizes
    match_kirillov: bool
    match_naive: bool


def _even_p_power_root(size: int, p: int) -> int:
    """sqrt of size, insisting that size is an even power of p."""
    e = 0
    s = size
    while s % p == 0:
        s //= p
        e += 1
    if s != 1 or e % 2 != 0:
        raise IntegrityError(f"orbit size {size} is not an even power of {p}")
    root = isqrt(size)
    if root * root != size:
        raise IntegrityError(f"orbit size {size} has no integer square root")
    return root


def kirillov_report(alg: NilAlgebra, p: int) -> OrbitReport:
    """Full orbit/class comparison for one algebra and prime.

    match_kirillov: the squared orbit-size roots sum to the group order
    and the number of fixed functionals equals the order of the
    abelianization (the count of 1-dimensional representations).

    match_naive: the orbit-size multiset coincides with the class-size
    multiset; false already for heis3, echoing the order-8 nilpotent
    groups where 1+1+1+1+4 and 1+1+2+2+2 cannot be matched term by term.
    """
    orbit_sizes = coadjoint_orbits(alg, p)
    class_sizes = conjugacy_classes(alg, p)
    group_order = p**alg.dim
    rep_dims = tuple(_even_p_power_root(s, p) for s in orbit_sizes)
    fixed = sum(1 for s in orbit_sizes if s == 1)
    abelianization = p ** (alg.dim - alg.derived_dim)
    match_kirillov = (
        sum(d * d for d in rep_dims) == group_order and fixed == abelianization
    )
    match_naive = orbit_sizes == class_sizes
    return OrbitReport(
        algebra=alg.name,
        p=p,
        group_order=group_order,
        orbit_sizes=orbit_sizes,
        class_sizes=class_sizes,
        rep_dims=rep_dims,
        match_kirillov=match_kirillov,
        match_naive=match_naive,
    )
