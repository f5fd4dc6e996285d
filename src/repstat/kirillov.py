"""Coadjoint orbits versus conjugacy classes for small unitriangular groups.

For a unitriangular group N over F_p with Lie algebra n (strictly upper
triangular matrices), the orbit method matches irreducible representations
with coadjoint orbits: each orbit has size d^2 for the corresponding
irreducible dimension d, because the orbit is a symplectic F_p-space and a
maximal isotropic subspace has half its dimension.  This module verifies
that correspondence over every functional, and also checks that the cruder
hope "d^2 multiset == conjugacy class size multiset" fails already for the
Heisenberg group.

Each algebra is a table of structure constants: triples (a, b, k) with
a < b, meaning [e_a, e_b] = e_k for the elementary-matrix basis, since
[E_hi, E_ij] = E_hj is the only nonzero basis bracket.  The Jacobi
identity and nilpotency are checked on the table when it is built.

Both tables come from ranks, not from closing orbits.  N = 1 + J is an
algebra group, and for those (Isaacs, "Characters of groups associated
with finite algebras", J. Algebra 177, 1995) the coadjoint orbit of f has
p^rank(B_f) elements, where B_f(x, y) = f([x, y]), and the class of 1 + X
has p^rank(ad_X) elements.  So the number of orbits of size p^r is the
number of vectors of rank r divided by p^r.  B_f reads f only on the
derived coordinates [n, n], and ad_X reads X only off the centre z(n), so
each rank is walked over its own coordinates, weighted by p^(the rest).
The diagonal torus keeps both ranks and scales coordinate (i, j) by
t_i / t_j, so a walk takes one representative per torus orbit, with 1 on
the spanning forest of its support.  The report keeps {rank: number of
orbits} as (value, multiplicity) pairs: orbit sizes p^r, degrees p^(r/2)
and class sizes p^s.  The closures these formulas replace (dense matrix
searches, a sparse BFS over all p^dim states) are tests/kirillov_oracles.py.
"""

from functools import lru_cache
from itertools import compress, product
from typing import NamedTuple

from .errors import IntegrityError, _check_cap

# Most torus representatives the two rank walks may take together: ut4 up
# to p = 211 (45,602, about 1.1 s on a shared 2-CPU Xeon with Python 3.11)
# and ut5 up to p = 7 (32,506, 1.6 s).  heis3 walks 6 at every p, so p's
# bit size bounds it, and trial division, which takes about 11 ms at 32 bits.
# The report holds one (value, multiplicity) pair per rank, at most dim + 1 per kind.
MAX_TORUS_REPRESENTATIVES = 50_000
MAX_PRIME_BITS = 32


class UnsupportedCharacteristicError(ValueError):
    """The orbit method needs p larger than the nilpotency class."""


class NilAlgebra(NamedTuple):
    """Strictly upper triangular matrices of a fixed size, as a Lie algebra.

    Basis vectors are the elementary matrices E_(i,j) for i < j, listed in
    lexicographic position order; coordinates of an algebra element are
    simply its strictly-upper entries.  brackets is the table of structure
    constants: a sorted tuple of triples (a, b, k) with a < b, each meaning
    [e_a, e_b] = e_k.  Every basis bracket of a pair a < b that is not
    listed is zero.  The constants are integers, reduced mod p only at use time.
    """

    name: str
    matrix_size: int
    dim: int
    positions: tuple[tuple[int, int], ...]
    brackets: tuple[tuple[int, int, int], ...]
    nilpotency_class: int
    derived_dim: int


def _nil_algebra(name: str, m: int, positions, brackets) -> NilAlgebra:
    """Check a bracket table for Jacobi and nilpotency, and derive its invariants."""
    dim = len(positions)
    # [e_a, e_b] = sign * e_k as table[a, b] = (k, sign), for both orders.
    table = {}
    for a, b, k in brackets:
        table[a, b] = (k, 1)
        table[b, a] = (k, -1)

    # Jacobi identity over the integers, hence over every F_p at once.
    for x, y, z in product(range(dim), repeat=3):
        acc: dict[int, int] = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            inner = table.get((v, w))
            outer = inner and table.get((u, inner[0]))
            if outer:
                acc[outer[0]] = acc.get(outer[0], 0) + inner[1] * outer[1]
        if any(acc.values()):
            raise IntegrityError(f"Jacobi identity fails for {name}")

    # Lower central series by index spans: each basis bracket is a single
    # basis vector, so [n, layer] is spanned by the brackets that meet layer.
    layer = set(range(dim))
    series = [layer]
    while layer:
        nxt = {k for (_, b), (k, _) in table.items() if b in layer}
        series.append(nxt)
        if nxt == layer:
            raise IntegrityError(f"{name} is not nilpotent")
        layer = nxt

    return NilAlgebra(
        name=name,
        matrix_size=m,
        dim=dim,
        positions=positions,
        brackets=brackets,
        nilpotency_class=len(series) - 1,
        derived_dim=len(series[1]),
    )


def _build_strictly_upper(name: str, m: int) -> NilAlgebra:
    positions = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    index = {pos: k for k, pos in enumerate(positions)}
    # [E_hi, E_ij] = E_hj is the only nonzero bracket of elementary
    # matrices, and (h, i) precedes (i, j) in position order.
    brackets = sorted((index[h, i], index[i, j], index[h, j]) for h, j in positions for i in range(h + 1, j))
    return _nil_algebra(name, m, positions, tuple(brackets))


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
    """Admissibility: p's bit size and the rank walks within their caps, and prime p > nilpotency class.

    This is the orbit method's requirement: Kirillov's correspondence for a
    p-group rests on the truncated exp/log series, which divide by k! for
    k up to the class, so those factorials must be invertible mod p.  The
    boundary cases p = 2 (heis3) and p in {2, 3} (ut4) are exactly where
    exp/log break down.  The rank formulas themselves hold for every p.

    The bit size of p and then the walks' length are refused first, so a
    huge p never reaches the trial-division test.
    """
    if p > 1:
        _check_cap(p.bit_length(), MAX_PRIME_BITS, f"{alg.name} at p={p}: bits of p")
        walk = sum((p - 1) ** len(free) for *_, forests in _sides(alg) for _, free in forests)
        _check_cap(walk, MAX_TORUS_REPRESENTATIVES, f"{alg.name} at p={p}: torus representatives")
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if p <= alg.nilpotency_class:
        raise UnsupportedCharacteristicError(
            f"{alg.name} needs p > {alg.nilpotency_class} for the truncated exp/log "
            f"series (denominators 1..{alg.nilpotency_class} must be invertible); got p={p}"
        )


@lru_cache(maxsize=1)
def _sides(alg: NilAlgebra):
    """B_f's and ad_X's sides: each one's (row, column, coordinate, sign) entries, the coordinates it reads, its forests.

    B_f(x, y) = f([x, y]): each triple (a, b, k) of the bracket table sets
    B_f[a][b] = f_k and B_f[b][a] = -f_k, so B_f reads f on the derived
    coordinates, the k's.  The centralizer of I + X is I plus the kernel of
    ad_X = [X, -], whose column b is sum_a X_a [e_a, e_b]: each triple adds
    X_a to ad_X[k][b] and -X_b to ad_X[k][a], so ad_X reads X modulo the
    centre, on the a's and b's.

    Each side's forests are built once here, for check_prime's count and
    for the walk alike; the cache keeps one algebra's sides, a report's.
    """
    form = tuple(e for a, b, k in alg.brackets for e in ((a, b, k, 1), (b, a, k, -1)))
    ad = tuple(e for a, b, k in alg.brackets for e in ((k, b, a, 1), (k, a, b, -1)))
    sides = []
    for entries in (form, ad):
        coords = tuple(sorted({e[2] for e in entries}))
        sides.append((entries, coords, tuple(_forests(alg, coords))))
    return tuple(sides)


def _forests(alg: NilAlgebra, coords):
    """Per support, a subset of coords: the edges of a spanning forest of its graph on matrix indices, and the rest."""
    for support in product((0, 1), repeat=len(coords)):
        component, forest, free = list(range(alg.matrix_size)), [], []
        for k in compress(coords, support):
            i, j = alg.positions[k]
            ci, cj = component[i], component[j]
            (free if ci == cj else forest).append(k)
            component = [cj if c == ci else c for c in component]
        yield tuple(forest), tuple(free)


def _torus_representatives(alg: NilAlgebra, forests, p: int):
    """One vector per diagonal-torus orbit on the vectors of F_p^dim supported on a side's coordinates, with the orbit's size.

    diag(t) scales coordinate (i, j) by t_i / t_j.  Each torus orbit on a
    support has one vector with 1 on the support's forest, built as the walk
    reaches it, and (p - 1)^(forest edges) vectors; free entries run over F_p^*.
    """
    for forest, free in forests:
        vector = [int(k in forest) for k in range(alg.dim)]
        weight = (p - 1) ** len(forest)
        for values in product(range(1, p), repeat=len(free)):
            for k, v in zip(free, values):
                vector[k] = v
            yield tuple(vector), weight


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of a square matrix over F_p by Gaussian elimination; rows is overwritten."""
    rank = 0
    for col in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [x * inv % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _rank_counts(alg: NilAlgebra, p: int) -> tuple[dict[int, int], dict[int, int]]:
    """Vectors of F_p^dim of each rank of B_f and of ad_X, from one walk per side.

    A rank is constant on torus orbits and on the coordinates its side does
    not read, so it is tallied with the representative's weight times p^(unread).
    """
    dim = alg.dim
    tallies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for (entries, coords, forests), counts in zip(_sides(alg), tallies):
        unread = p ** (dim - len(coords))
        for vector, weight in _torus_representatives(alg, forests, p):
            rows = [[0] * dim for _ in range(dim)]
            for r, s, k, c in entries:
                rows[r][s] += c * vector[k]
            rank = _rank_mod_p(rows, p)
            counts[rank] = counts.get(rank, 0) + weight * unread
    return tallies


def _orbits_by_rank(counts: dict[int, int], p: int, dim: int) -> dict[int, int]:
    """{rank: number of orbits}, in ascending rank, when an orbit of rank r has p^r elements.

    The count of vectors of rank r must split into whole orbits of size
    p^r, and the orbit sizes must partition p^dim.
    """
    orbits = {}
    for rank in sorted(counts):
        size = p**rank
        orbits[rank], rest = divmod(counts[rank], size)
        if rest:
            raise IntegrityError(f"{counts[rank]} vectors of rank {rank} do not split into orbits of size {size}")
    total = sum(n * p**rank for rank, n in orbits.items())
    if total != p**dim:
        raise IntegrityError(f"orbit sizes sum to {total}, not {p}^{dim}")
    return orbits


class OrbitReport(NamedTuple):
    algebra: str
    p: int
    group_order: int
    # (value, multiplicity) pairs in ascending value.
    orbit_sizes: tuple[tuple[int, int], ...]
    class_sizes: tuple[tuple[int, int], ...]
    rep_dims: tuple[tuple[int, int], ...]  # square roots of the orbit sizes
    match_kirillov: bool
    match_naive: bool


def kirillov_report(alg: NilAlgebra, p: int) -> OrbitReport:
    """Full orbit/class comparison for one algebra and prime.

    The walk's cap and p are checked once, and one walk of the torus
    representatives gives both rank tallies.  The number of coadjoint
    orbits must equal the number of conjugacy classes, as it does for
    every algebra group.

    match_kirillov: the squared degrees, with multiplicity, sum to the
    group order and the number of fixed functionals equals the order of
    the abelianization (the count of 1-dimensional representations).

    match_naive: the orbit-size multiset coincides with the class-size
    multiset; false already for heis3, echoing the order-8 nilpotent
    groups where 1+1+1+1+4 and 1+1+2+2+2 cannot be matched term by term.
    """
    check_prime(alg, p)
    form_counts, ad_counts = _rank_counts(alg, p)
    orbits = _orbits_by_rank(form_counts, p, alg.dim)
    classes = _orbits_by_rank(ad_counts, p, alg.dim)
    n_orbits, n_classes = sum(orbits.values()), sum(classes.values())
    if n_orbits != n_classes:
        raise IntegrityError(f"{alg.name} at p={p}: {n_orbits} coadjoint orbits but {n_classes} conjugacy classes")
    # B_f is alternating, so its rank is even: every orbit size is an even
    # power of p, the square of a representation degree.
    for rank in orbits:
        if rank % 2:
            raise IntegrityError(f"orbit size {p**rank} is not an even power of {p}")
    orbit_sizes = tuple((p**r, m) for r, m in orbits.items())
    class_sizes = tuple((p**s, m) for s, m in classes.items())
    group_order = p**alg.dim
    rep_dims = tuple((p ** (r // 2), m) for r, m in orbits.items())
    abelianization = p ** (alg.dim - alg.derived_dim)
    match_kirillov = sum(m * d * d for d, m in rep_dims) == group_order and orbits.get(0, 0) == abelianization
    # Both sides ascend with distinct values, so this is multiset equality.
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
