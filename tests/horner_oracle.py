"""Cross-check for ``jordanlab.matrices.poly_at_matrix``, used only by the tests.

The library steps over each run of zero coefficients with one product by
a power of the matrix, formed by repeated squaring.  The oracle is the
integer Horner rule it replaced, kept verbatim: one product per
coefficient below the leading one, zeros included.
"""

from __future__ import annotations

from jordanlab.matrices import QMatrix, _divided, flat_matmul
from jordanlab.polynomials import UniPoly
from jordanlab.scalars import cleared


def horner_poly_at_matrix(p: UniPoly, m: QMatrix) -> QMatrix:
    """p(m) by plain Horner on Q_k = P_k*e^(D-k) at M, for p = P/c and
    m = M/e, divided once by c*e^D; it makes deg p products."""
    n = m.rows
    if p.is_zero():
        return QMatrix.zeros(n)
    coeffs, c = cleared(p.coeffs)
    mat, e = cleared(m.entries)
    deg = p.degree
    out = [0] * (n * n)
    for k in range(deg, -1, -1):
        if k < deg:
            out = flat_matmul(out, mat, n, n, n)
        q = coeffs[k] * e ** (deg - k)
        if q:
            for i in range(0, n * n, n + 1):
                out[i] += q
    return QMatrix(n, n, _divided(out, c * e ** deg))
