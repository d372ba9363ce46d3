"""Cross-checks for ``jordanlab.matrices.char_poly``, used only by the tests.

The library reads the characteristic polynomial off the power sums
tr(A^k) by Newton's identities, forming the powers baby-step/giant-step.
The oracles are the Faddeev-LeVerrier loop it replaced, kept verbatim (one
product per coefficient), and sympy's charpoly over QQ.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from jordanlab.matrices import QMatrix, flat_matmul
from jordanlab.polynomials import UniPoly


def faddeev_leverrier(m: QMatrix) -> UniPoly:
    """det(tI - m) on the integer A = d*m: M_1 = I, a_(n-k) = -tr(A M_k)/k,
    M_(k+1) = A M_k + a_(n-k) I give det(tI - A) = sum a_j t^j, each
    division exact; the t^k coefficient of det(tI - m) is a_k/d^(n-k).
    It makes n products."""
    n, a, d = m.rows, m.nums, m.den
    coeffs = [0] * n + [1]
    am = [0] * (n * n)
    for k in range(1, n + 1):
        for i in range(0, n * n, n + 1):
            am[i] += coeffs[n - k + 1]
        am = flat_matmul(a, am, n, n, n)
        coeffs[n - k] = -sum(am[i] for i in range(0, n * n, n + 1)) // k
    return UniPoly(Fraction(v, d ** (n - k)) for k, v in enumerate(coeffs))


def sympy_char_poly(x: QMatrix):
    """Oracle: det(tI - X) computed by sympy over QQ, independent of char_poly.

    Returns the polynomial and whether it splits into linear factors over QQ.
    """
    char = _sympy_charpoly(x)
    splits = all(f.degree() == 1 for f, _ in char.factor_list()[1])
    return _unipoly(char), splits


def sympy_det_poly(x: QMatrix) -> UniPoly:
    """det(tI - X) by sympy over QQ, without the factoring of ``sympy_char_poly``."""
    return _unipoly(_sympy_charpoly(x))


def _sympy_charpoly(x: QMatrix):
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix(x.rows, x.cols,
                     [sympy.Rational(v.numerator, v.denominator) for v in x.entries])
    return m.charpoly()


def _unipoly(char) -> UniPoly:
    coeffs = char.all_coeffs()  # highest degree first
    return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])
