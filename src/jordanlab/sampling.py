"""Seeded deterministic generators used by randomized tests and the CLI.

All sampling goes through an explicit random.Random instance; rationals are
drawn with numerators in [-9, 9] and denominators in [1, 4] so coefficient
growth stays printable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from .matrices import QMatrix, flat_matmul, poly_at_matrix
from .polynomials import UniPoly
from .freealg import NormalPoly
from .imagealg import _transposed
from .reps import (
    Partition,
    RepPair,
    _centralizer_supports,
    _particular_solution,
    jordan_block,
)
from .scalars import Scalar, exact
from .strata import partitions


def _rand_ratio(rng: random.Random) -> "tuple[int, int]":
    """The numerator in [-9, 9] and the denominator in [1, 4] of one rational draw."""
    return rng.randint(-9, 9), rng.randint(1, 4)


def rand_rational(rng: random.Random) -> Scalar:
    return exact(Fraction(*_rand_ratio(rng)))


def rand_nonzero_rational(rng: random.Random) -> Scalar:
    while True:
        v = rand_rational(rng)
        if v != 0:
            return v


def rand_partition(rng: random.Random, n: int) -> Partition:
    return rng.choice(partitions(n))


def _fiber_numerators(rng: random.Random, p: Partition) -> "list[int]":
    """12 times a random solution X of the relation for Y = jordan_matrix(p),
    row-major: the integer numerators of X over 12.

    X is particular + sum of c_i * basis_i over ``fiber_basis(p)``, with
    one rational draw per basis element in basis order.  Basis element i is
    the 0/1 matrix of the i-th support of ``_centralizer_supports`` (same
    order), so c_i is added on those cells and no basis matrix is built.
    Every draw's denominator divides 12 = lcm(1, 2, 3, 4), so 12*c_i is an
    integer; the particular solution is integral, with den 1.
    """
    acc = [12 * v for v in _particular_solution(p).nums]
    for cells in _centralizer_supports(p):
        num, den = _rand_ratio(rng)
        if num:
            c = num * (12 // den)
            for cell in cells:
                acc[cell] += c
    return acc


def rand_fiber_point(rng: random.Random, p: Partition) -> QMatrix:
    """Random solution X of the relation for Y = jordan_matrix(p): the
    numerators of ``_fiber_numerators`` over 12, reduced by one gcd."""
    return QMatrix._reduced(p.n, p.n, _fiber_numerators(rng, p), 12)


def _unit_lower_inverse(low: "list[int]", n: int) -> "list[int]":
    """The inverse V of a unit lower triangular integer n x n matrix L
    (row-major), by forward substitution: V_ij = -sum_(j<=t<i) L_it V_tj
    for j < i, with V_ii = 1 and V_ij = 0 for j > i.

    Row i of V is e_i - sum_(t<i) L_it (row t of V), formed from the rows
    above it; row t is zero past column t, so entry j sums over j <= t < i.
    Then (L V)_ij = V_ij + sum_(t<i) L_it V_tj = delta_ij, so L V = I, and
    V is the two-sided inverse of the square L.  Only integer products and
    differences occur, so V is exact and integral: no pivot, no division
    and no gcd.
    """
    inv = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        base = i * n
        for t in range(i):
            f = low[base + t]
            if f:
                tbase = t * n
                for j in range(t + 1):
                    row[j] -= f * inv[tbase + j]
        inv += row
    return inv


def _unimodular_ints(rng: random.Random, n: int) -> "tuple[list[int], list[int]]":
    """A random integer c = L U with determinant 1 and its inverse c_inv,
    both row-major integer lists.

    L is a random unit lower and U a random unit upper triangular integer
    matrix (entries off the diagonal in [-2, 2], L's drawn first), and
    c_inv = U^-1 L^-1.  U^T is unit lower triangular and (U^T)^-1 =
    (U^-1)^T, so U^-1 is the transpose of ``_unit_lower_inverse`` of U^T.
    Then c c_inv = L (U U^-1) L^-1 = I.
    """
    lower = [1 if i == j else (rng.randint(-2, 2) if i > j else 0)
             for i in range(n) for j in range(n)]
    upper = [1 if i == j else (rng.randint(-2, 2) if i < j else 0)
             for i in range(n) for j in range(n)]
    upper_inv = _transposed(_unit_lower_inverse(_transposed(upper, n), n), n)
    return (flat_matmul(lower, upper, n, n, n),
            flat_matmul(upper_inv, _unit_lower_inverse(lower, n), n, n, n))


def rand_unimodular(rng: random.Random, n: int) -> "tuple[QMatrix, QMatrix]":
    """Random integer matrix with determinant 1, plus its exact inverse
    (``_unimodular_ints``)."""
    c, c_inv = _unimodular_ints(rng, n)
    return QMatrix._of(n, n, tuple(c), 1), QMatrix._of(n, n, tuple(c_inv), 1)


def rand_rep(rng: random.Random, n: int) -> RepPair:
    """Random partition, random fiber point, random conjugation.

    The draws are made in the order partition, fiber point, L, U, as by
    ``rand_partition``, ``rand_fiber_point`` and ``rand_unimodular``.  The
    pair is (c X c_inv, c J c_inv) with X = A/12 for the integer A of
    ``_fiber_numerators``, J = jordan_matrix(p), and c, c_inv of
    ``_unimodular_ints``; it is formed on integers, and a ``QMatrix`` is
    built from the numerators of each result.
    - c J is a column shift: J has a 1 at (j-1, j) for each column j that
      does not start a block of p and is 0 elsewhere, so column j of c J is
      column j-1 of c there and 0 at the first column of each block.  So
      Y = (c J) c_inv is one integer product.
    - c X c_inv = (c A c_inv)/12, so X's image is two integer products
      over 12, reduced by one gcd (``QMatrix._reduced``).

    Not re-verified.  Proof: X solves the relation for Y = J by the
    ``fiber_basis`` theorem, and c c_inv = I (``_unimodular_ints``), so
    (c X c_inv, c J c_inv) satisfies it too (``reps.conjugate``), and
    neither c c_inv = I nor the relation is checked again.
    """
    p = rand_partition(rng, n)
    acc = _fiber_numerators(rng, p)
    c, c_inv = _unimodular_ints(rng, n)
    starts = set(accumulate(p.parts, initial=0))
    cj = [0 if j in starts else c[i + j - 1] for i in range(0, n * n, n) for j in range(n)]
    x = flat_matmul(flat_matmul(c, acc, n, n, n), c_inv, n, n, n)
    y = flat_matmul(cj, c_inv, n, n, n)
    return RepPair._proved(QMatrix._reduced(n, n, x, 12), QMatrix._of(n, n, tuple(y), 1))


def rand_stabilizer_element(rng: random.Random, n: int) -> QMatrix:
    """Random member I + a_1 J + ... + a_(n-1) J^(n-1) of the unipotent
    stabilizer of J = J_n, one rand_rational draw per a_k in order."""
    return poly_at_matrix(UniPoly([1, *(rand_rational(rng) for _ in range(1, n))]),
                          jordan_block(n))


def rand_normal_poly(rng: random.Random, max_degree: int) -> NormalPoly:
    """Random nonzero polynomial on the normal basis with degree <= max_degree."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(0, max_degree)
            k = rng.randint(0, d)
            terms[(k, d - k)] = rand_rational(rng)
        poly = NormalPoly(terms)
        if not poly.is_zero():
            return poly
