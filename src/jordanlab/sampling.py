"""Seeded deterministic generators used by randomized tests and the CLI.

All sampling goes through an explicit random.Random instance; rationals are
drawn with numerators in [-9, 9] and denominators in [1, 4] so coefficient
growth stays printable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import QMatrix, inverse
from .freealg import NormalPoly
from .reps import Partition, RepPair, conjugate, fiber_basis, jordan_block, jordan_matrix
from .scalars import Scalar, exact
from .strata import partitions


def rand_rational(rng: random.Random) -> Scalar:
    return exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def rand_nonzero_rational(rng: random.Random) -> Scalar:
    while True:
        v = rand_rational(rng)
        if v != 0:
            return v


def rand_partition(rng: random.Random, n: int) -> Partition:
    return rng.choice(partitions(n))


def rand_fiber_point(rng: random.Random, p: Partition) -> QMatrix:
    """Random solution X of the relation for Y = jordan_matrix(p).

    particular + sum of c_i * basis_i with one rand_rational draw per basis
    element, in basis order, accumulated entrywise into one matrix.
    """
    particular, basis = fiber_basis(p)
    acc = list(particular.entries)
    for b in basis:
        c = rand_rational(rng)
        if c != 0:
            for i, v in enumerate(b.entries):
                if v:
                    acc[i] += c * v
    return QMatrix(particular.rows, particular.cols, tuple(acc))


def rand_unimodular(rng: random.Random, n: int) -> "tuple[QMatrix, QMatrix]":
    """Random integer matrix with determinant 1, plus its exact inverse."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0)
              for j in range(n)] for i in range(n)]
    c = QMatrix.from_rows(lower) @ QMatrix.from_rows(upper)
    return c, inverse(c)


def rand_rep(rng: random.Random, n: int) -> RepPair:
    """Random partition, random fiber point, random conjugation."""
    p = rand_partition(rng, n)
    x = rand_fiber_point(rng, p)
    base = RepPair(x, jordan_matrix(p))
    c, c_inv = rand_unimodular(rng, n)
    return conjugate(base, c, c_inv)


def rand_stabilizer_element(rng: random.Random, n: int) -> QMatrix:
    """Random member of the unipotent stabilizer {I + a_1 J + ... }."""
    j = jordan_block(n)
    out = QMatrix.identity(n)
    power = QMatrix.identity(n)
    for _ in range(1, n):
        power = power @ j
        c = rand_rational(rng)
        if c != 0:
            out = out + power.scale(c)
    return out


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
