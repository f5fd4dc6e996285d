"""Brute-force oracles for the orbit tables in repstat.kirillov.

The library counts orbit and class sizes from ranks over torus
representatives.  These oracles close the orbits instead, over all p^dim
states: two dense searches (conjugation of unitriangular matrices, and
dense rows of Ad(g^-1) on functionals), and the sparse linear-action
engine the library used before the rank formulas.  The truncated exp/log
pair lives here too, since nothing in the library needs it, and so does
the rank walk over all of F_p^dim that the library's walks over the
derived and the non-central coordinates replaced.
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial
from operator import mul

from repstat.kirillov import NilAlgebra, _rank_mod_p


def pairs(flat) -> tuple[tuple[int, int], ...]:
    """A flat list of sizes as (size, multiplicity) pairs in ascending size, the report's shape."""
    return tuple(sorted(Counter(flat).items()))


def _mat_mul(a, b, p: int):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def _matrix(alg: NilAlgebra, coords, diag: int, p: int):
    """The matrix diag * I + X, where X has these strictly-upper coordinates."""
    m = alg.matrix_size
    mat = [[diag if i == j else 0 for j in range(m)] for i in range(m)]
    for (i, j), v in zip(alg.positions, coords):
        mat[i][j] = v % p
    return tuple(tuple(row) for row in mat)


def _coords(alg: NilAlgebra, mat) -> tuple[int, ...]:
    return tuple(mat[i][j] for i, j in alg.positions)


@lru_cache(maxsize=4)
def _series_plan(alg: NilAlgebra, p: int):
    """Index lists and coefficients for the exp/log series on flat vectors.

    A strictly upper m x m matrix is the flat list of its entries at
    (i, j), i < j, in row order.  The plan holds the flat index of each
    algebra coordinate; the (t, a, b) triples with (XY)[t] = sum of
    X[a] * Y[b]; the index of every cell of the m x m matrix in
    (0, 1, *flat), which rebuilds I + X; and the exp and log series
    coefficients 1/k! and (-1)^(k+1)/k mod p for k = 1..m-1.
    """
    m = alg.matrix_size
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    at = {pos: t for t, pos in enumerate(upper)}
    coord_index = tuple(at[pos] for pos in alg.positions)
    triples = tuple((at[i, j], at[i, k], at[k, j]) for i, j in upper for k in range(i + 1, j))
    cells = tuple(tuple(int(i == j) if i >= j else 2 + at[i, j] for j in range(m)) for i in range(m))
    exp_coefs = tuple(pow(factorial(k), -1, p) for k in range(1, m))
    log_coefs = tuple((-1) ** (k + 1) * pow(k, -1, p) for k in range(1, m))
    return coord_index, triples, cells, exp_coefs, log_coefs


def _power_series(x, coefs, triples, p: int):
    """sum_k coefs[k - 1] * x^k over k = 1..len(coefs) for a flat nilpotent x, mod p."""
    acc = [coefs[0] * v for v in x]
    power = x
    for c in coefs[1:]:
        product = [0] * len(x)
        for t, a, b in triples:
            product[t] += power[a] * x[b]
        power = product
        acc = [s + c * v for s, v in zip(acc, power)]
    return [v % p for v in acc]


def exp_element(coords, alg: NilAlgebra, p: int):
    """exp of the algebra element with the given coordinates, as a matrix.

    Truncated series I + X + X^2/2! + ... ; it terminates because X is
    nilpotent of degree at most the matrix size.  p must pass
    `kirillov.check_prime`, which callers check once for a whole sweep.
    """
    coord_index, triples, cells, coefs, _ = _series_plan(alg, p)
    m = alg.matrix_size
    x = [0] * (m * (m - 1) // 2)
    for t, v in zip(coord_index, coords):
        x[t] = v
    flat = (0, 1, *_power_series(x, coefs, triples, p))
    return tuple(tuple(flat[c] for c in row) for row in cells)


def log_element(mat, alg: NilAlgebra, p: int) -> tuple[int, ...]:
    """Coordinates of log of a unitriangular matrix; inverse of exp_element."""
    coord_index, triples, _, _, coefs = _series_plan(alg, p)
    x = [v for i, row in enumerate(mat) for v in row[i + 1 :]]
    series = _power_series(x, coefs, triples, p)
    return tuple(series[t] for t in coord_index)


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


def whole_space_rank_counts(alg: NilAlgebra, p: int) -> tuple[dict[int, int], dict[int, int]]:
    """{rank: vectors} of B_f and of ad_X over all of F_p^dim, from one walk of its torus representatives.

    Every one of the 2^dim supports gets a spanning forest of its graph on
    the matrix indices, edges taken in position order.  A representative
    has 1 on the forest and any value of F_p^* on the other entries of its
    support; its torus orbit holds (p - 1)^(forest edges) vectors.  Both
    ranks are taken of each representative and tallied with that weight.
    """
    dim = alg.dim
    form = [e for a, b, k in alg.brackets for e in ((a, b, k, 1), (b, a, k, -1))]
    ad = [e for a, b, k in alg.brackets for e in ((k, b, a, 1), (k, a, b, -1))]
    tallies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for mask in range(1 << dim):
        component, forest, free = list(range(alg.matrix_size)), [], []
        for k, (i, j) in enumerate(alg.positions):
            if mask >> k & 1:
                ci, cj = component[i], component[j]
                if ci == cj:
                    free.append(k)
                else:
                    forest.append(k)
                    component = [cj if c == ci else c for c in component]
        coords = [int(k in forest) for k in range(dim)]
        weight = (p - 1) ** len(forest)
        for values in product(range(1, p), repeat=len(free)):
            for k, v in zip(free, values):
                coords[k] = v
            for entries, counts in zip((form, ad), tallies):
                rows = [[0] * dim for _ in range(dim)]
                for r, s, k, c in entries:
                    rows[r][s] += c * coords[k]
                rank = _rank_mod_p(rows, p)
                counts[rank] = counts.get(rank, 0) + weight
    return tallies
