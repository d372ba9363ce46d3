"""Seeded deterministic generators used by randomized tests and the CLI.

All sampling goes through an explicit random.Random instance; rationals are
drawn with numerators in [-9, 9] and denominators in [1, 4] so coefficient
growth stays printable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import QMatrix, _divided, _product, flat_matmul, inverse, poly_at_matrix
from .polynomials import UniPoly
from .freealg import NormalPoly
from .reps import (
    Partition,
    RepPair,
    _centralizer_supports,
    _particular_solution,
    jordan_block,
    jordan_matrix,
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


def rand_fiber_point(rng: random.Random, p: Partition) -> QMatrix:
    """Random solution X of the relation for Y = jordan_matrix(p).

    particular + sum of c_i * basis_i over ``fiber_basis(p)``, with one
    rational draw per basis element in basis order.  Basis element i is the
    0/1 matrix of the i-th support of ``_centralizer_supports`` (same
    order), so c_i is added on those cells and no basis matrix is built.
    The sum is taken on integers over 12 = lcm(1, 2, 3, 4), which every
    draw's denominator divides, and divided once per entry.
    """
    n = p.n
    acc = [12 * v for v in _particular_solution(p).entries]
    for cells in _centralizer_supports(p):
        num, den = _rand_ratio(rng)
        if num:
            c = num * (12 // den)
            for cell in cells:
                acc[cell] += c
    return QMatrix(n, n, _divided(acc, 12))


def rand_unimodular(rng: random.Random, n: int) -> "tuple[QMatrix, QMatrix]":
    """Random integer matrix with determinant 1, plus its exact inverse.

    The product L U of a random unit lower and a random unit upper
    triangular integer matrix, formed by one integer ``flat_matmul``.
    """
    lower = [1 if i == j else (rng.randint(-2, 2) if i > j else 0)
             for i in range(n) for j in range(n)]
    upper = [1 if i == j else (rng.randint(-2, 2) if i < j else 0)
             for i in range(n) for j in range(n)]
    c = QMatrix(n, n, tuple(flat_matmul(lower, upper, n, n, n)))
    return c, inverse(c)


def rand_rep(rng: random.Random, n: int) -> RepPair:
    """Random partition, random fiber point, random conjugation.

    Not re-verified.  Proof: X = ``rand_fiber_point`` solves the relation
    for Y = jordan_matrix(p) by the ``fiber_basis`` theorem, and c_inv is
    the exact inverse of c (``rand_unimodular``), so (c X c_inv, c Y c_inv)
    satisfies it too (``reps.conjugate``), and neither c c_inv = I nor the
    relation is checked again.  Each side is one fraction-free triple
    product (``matrices._product``).
    """
    p = rand_partition(rng, n)
    x = rand_fiber_point(rng, p)
    c, c_inv = rand_unimodular(rng, n)
    return RepPair._proved(_product(c, x, c_inv), _product(c, jordan_matrix(p), c_inv))


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
