"""Cross-checks for ``jordanlab.imagealg.radical_basis``, ``quiver`` and the
spectral split, used only by the tests.

The library reads the radical off the kernel of the trace form and closes
the quiver's right ideals per eigen-summand, in m_i^2 coordinates.  The
oracles are the closures they replaced, kept verbatim: the radical is the
right ideal of {Y, S(X)} and the quiver closes J e_i and J^2 e_i in the
full n^2-coordinate space, from the eigenprojections e_i.  The generalized
eigenbasis is taken from the kernels of the (X - lambda)^mult for every
spectrum, one eigenvalue included, and ``decompose`` conjugates by it.
"""

from __future__ import annotations

from jordanlab.imagealg import (
    ImageAlgebra,
    QuiverData,
    _eigenprojections,
    _right_ideal,
    rational_spectrum,
)
from jordanlab.matrices import (
    QMatrix,
    _product,
    flat_matmul,
    inverse,
    nullspace_basis,
    poly_at_matrix,
)
from jordanlab.polynomials import UniPoly
from jordanlab.reps import RepPair
from jordanlab.scalars import primitive_integral
from jordanlab.strata import Decomposition


def _radical_generators(rep: RepPair, spectrum) -> "list[list[int]]":
    """Y and S(X), S = prod of (t - lambda), as primitive integer vectors."""
    s = UniPoly.from_roots([lam for lam, _ in spectrum])
    return [primitive_integral(m.entries) for m in (rep.Y, poly_at_matrix(s, rep.X))]


def radical_by_closure(a: ImageAlgebra) -> "list[QMatrix]":
    """J = YA + S(X)A, the right ideal of {Y, S(X)}, in reduced-echelon order."""
    n = a.rep.n
    span = _right_ideal(a.rep, _radical_generators(a.rep, rational_spectrum(a.rep.X)))
    return [QMatrix(n, n, vec) for vec in span.basis_vectors()]


def quiver_by_closures(a: ImageAlgebra) -> QuiverData:
    """Loops dim J e_i - dim J^2 e_i, with J e_i the right ideal of
    {Y e_i, S(X) e_i} and J^2 e_i that of the four products g h e_i."""
    spectrum = rational_spectrum(a.rep.X)
    n = a.rep.n
    gens = _radical_generators(a.rep, spectrum)
    loops = []
    for e in _eigenprojections(a.rep.X, spectrum):
        e = primitive_integral(e.entries)
        ge = [flat_matmul(g, e, n, n, n) for g in gens]
        je = _right_ideal(a.rep, ge)
        j2e = _right_ideal(a.rep, [flat_matmul(g, h, n, n, n) for g in gens for h in ge])
        loops.append(je.rank - j2e.rank)
    arrows = tuple(tuple(loop if i == j else 0 for j in range(len(loops)))
                   for i, loop in enumerate(loops))
    return QuiverData(tuple(lam for lam, _ in spectrum), arrows)


def eigenbasis_by_kernels(x: QMatrix, spectrum) -> "tuple[QMatrix, QMatrix]":
    """C and C^-1, where the columns of C are the canonical kernel bases of
    the (X - lambda)^mult in spectrum order."""
    n = x.rows
    columns = []
    for lam, mult in spectrum:
        columns += nullspace_basis(poly_at_matrix(UniPoly.from_roots([lam] * mult), x))
    c = QMatrix(n, n, tuple(columns[j][i] for i in range(n) for j in range(n)))
    return c, inverse(c)


def decompose_by_kernels(rep: RepPair) -> Decomposition:
    """The diagonal blocks of (C^-1 X C, C^-1 Y C), C from the kernels."""
    n = rep.n
    spectrum = rational_spectrum(rep.X)
    c, c_inv = eigenbasis_by_kernels(rep.X, spectrum)
    xb, yb = _product(c_inv, rep.X, c).entries, _product(c_inv, rep.Y, c).entries
    summands = []
    lo = 0
    for _, size in spectrum:
        block = [i * n + j for i in range(lo, lo + size) for j in range(lo, lo + size)]
        summands.append(RepPair(QMatrix(size, size, tuple(xb[k] for k in block)),
                                QMatrix(size, size, tuple(yb[k] for k in block))))
        lo += size
    return Decomposition(tuple(summands), tuple(lam for lam, _ in spectrum), c)
