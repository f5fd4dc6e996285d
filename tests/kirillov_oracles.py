"""Brute-force oracles for the orbit tables in repstat.kirillov.

The library counts orbit and class sizes from ranks over torus
representatives.  These oracles close the orbits instead, over all p^dim
states: two dense searches (conjugation of unitriangular matrices, and
dense rows of Ad(g^-1) on functionals), and the sparse linear-action
engine the library used before the rank formulas.  The truncated exp/log
pair lives here too; nothing in the library needs it.
"""

from math import factorial
from operator import mul

from repstat.kirillov import NilAlgebra


def _identity(m: int):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _mat_mul(a, b, p: int):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def _mat_add(a, b, scale: int, p: int):
    return tuple(tuple((x + scale * y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _matrix(alg: NilAlgebra, coords, diag: int, p: int):
    """The matrix diag * I + X, where X has these strictly-upper coordinates."""
    m = alg.matrix_size
    mat = [[diag if i == j else 0 for j in range(m)] for i in range(m)]
    for (i, j), v in zip(alg.positions, coords):
        mat[i][j] = v % p
    return tuple(tuple(row) for row in mat)


def _coords(alg: NilAlgebra, mat) -> tuple[int, ...]:
    return tuple(mat[i][j] for i, j in alg.positions)


def _power_series(x, coefs, p: int):
    """sum_k coefs[k - 1] * x^k over k = 1..len(coefs), for nilpotent x."""
    acc = tuple(tuple(coefs[0] * v % p for v in row) for row in x)
    power = x
    for c in coefs[1:]:
        power = _mat_mul(power, x, p)
        acc = _mat_add(acc, power, c, p)
    return acc


def exp_element(coords, alg: NilAlgebra, p: int):
    """exp of the algebra element with the given coordinates, as a matrix.

    Truncated series I + X + X^2/2! + ... ; it terminates because X is
    nilpotent of degree at most the matrix size.  p must pass
    `kirillov.check_prime`, which callers check once for a whole sweep.
    """
    m = alg.matrix_size
    coefs = [pow(factorial(k), -1, p) for k in range(1, m)]
    return _mat_add(_identity(m), _power_series(_matrix(alg, coords, 0, p), coefs, p), 1, p)


def log_element(mat, alg: NilAlgebra, p: int) -> tuple[int, ...]:
    """Coordinates of log of a unitriangular matrix; inverse of exp_element."""
    m = alg.matrix_size
    coefs = [(-1) ** (k + 1) * pow(k, -1, p) for k in range(1, m)]
    return _coords(alg, _power_series(_mat_add(mat, _identity(m), -1, p), coefs, p))


def _all_states(dim: int, p: int):
    for code in range(p**dim):
        coords = []
        for _ in range(dim):
            code, v = divmod(code, p)
            coords.append(v)
        yield tuple(coords)


def _generators(alg: NilAlgebra, p: int):
    """(I + E_ij, I - E_ij) for every strictly-upper position (i, j).

    The I + E_ij generate the whole group, and E_ij^2 = 0 makes I - E_ij
    the inverse.
    """
    pairs = []
    for k in range(alg.dim):
        unit = [0] * alg.dim
        unit[k] = 1
        minus = [0] * alg.dim
        minus[k] = -1
        pairs.append((_matrix(alg, unit, 1, p), _matrix(alg, minus, 1, p)))
    return pairs


def _conjugation_images(alg: NilAlgebra, p: int, inverse: bool):
    """Per generator g, the coordinates of g B_k g^-1 for each basis matrix B_k.

    With inverse=True the conjugation is g^-1 B_k g instead.
    """
    rng = range(alg.dim)
    basis = [_matrix(alg, [int(j == k) for j in rng], 0, p) for k in rng]
    images = []
    for g, ginv in _generators(alg, p):
        left, right = (ginv, g) if inverse else (g, ginv)
        images.append([_coords(alg, _mat_mul(_mat_mul(left, b, p), right, p)) for b in basis])
    return images


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


def oracle_conjugacy_classes(alg: NilAlgebra, p: int):
    """Class sizes by conjugating unitriangular matrices g x g^-1."""
    pairs = _generators(alg, p)
    group = (_matrix(alg, coords, 1, p) for coords in _all_states(alg.dim, p))
    return _closure_sizes(group, lambda x: [_mat_mul(_mat_mul(g, x, p), ginv, p) for g, ginv in pairs])


def oracle_coadjoint_orbits(alg: NilAlgebra, p: int):
    """Orbit sizes of lam -> lam(g^-1 . g) through dense rows of Ad(g^-1)."""
    rng = range(alg.dim)
    maps = _conjugation_images(alg, p, inverse=True)

    def step(lam):
        return [tuple(sum(rows[j][k] * lam[k] for k in rng) % p for j in rng) for rows in maps]

    return _closure_sizes(_all_states(alg.dim, p), step)


def _linear_orbits(maps, p: int, dim: int) -> tuple[int, ...]:
    """Sorted orbit sizes of the group generated by linear maps of F_p^dim.

    Each map is a dim x dim matrix M acting by lam -> M lam.  A vector is
    kept as its integer code sum_j lam_j p^j.  Only the nonzero entries of
    M - I are stored, so applying a map to a decoded vector touches just
    the coordinates it changes, adding (new - old) * p^j to the code.
    Orbits are closed depth-first under the maps over a visited array of
    p^dim bytes.
    """
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
    visited = bytearray(p**dim)
    sizes = []
    for start in range(p**dim):
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
    return tuple(sorted(sizes))


def bfs_coadjoint_orbits(alg: NilAlgebra, p: int):
    """Coadjoint orbit sizes from the sparse engine: lam'_j = sum_k (g^-1 B_j g)_k lam_k."""
    return _linear_orbits(_conjugation_images(alg, p, inverse=True), p, alg.dim)


def bfs_conjugacy_classes(alg: NilAlgebra, p: int):
    """Class sizes from the sparse engine: g(I + X)g^-1 = I + gXg^-1, column k is g B_k g^-1."""
    maps = [tuple(zip(*images)) for images in _conjugation_images(alg, p, inverse=False)]
    return _linear_orbits(maps, p, alg.dim)
