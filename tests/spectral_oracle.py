"""Cross-check for ``jordanlab.imagealg._eigenprojections``, used only by the tests.

The library reads the eigenprojections of X off the generalized eigenbasis
C as C P_i C^-1, for ``idempotents`` only: ``quiver`` forms no e_i, it
closes the eigen-summands of ``imagealg._summands``.  The oracle builds
them as polynomials in X by the extended Euclidean algorithm in Q[t]:
char(X) is the product of the pairwise coprime p_i = (t - lambda_i)^(m_i),
so with q_i = char/p_i there are u, v with u*q_i + v*p_i = 1, and
e_i = u*q_i mod char is 1 modulo p_i and 0 modulo every other p_j.  So
char divides e_i^2 - e_i, sum_i e_i - 1 and e_i*e_j (i != j), and
Cayley-Hamilton makes each an identity at X.
"""

from __future__ import annotations

from math import prod

from jordanlab.matrices import QMatrix, poly_at_matrix
from jordanlab.polynomials import UniPoly, poly_ext_gcd


def eigenprojections_by_euclid(x: QMatrix, spectrum) -> "list[QMatrix]":
    """E_i(X), E_i = u*q_i mod char; char(X) is the product of the
    p_i = (t - lambda_i)^(m_i) of the rational spectrum."""
    powers = [UniPoly.from_roots([lam] * mult) for lam, mult in spectrum]
    char = prod(powers, start=UniPoly.one())
    out = []
    for p_i in powers:
        q_i = char // p_i
        _, u, _ = poly_ext_gcd(q_i, p_i)
        out.append(poly_at_matrix((u * q_i) % char, x))
    return out
