"""Eigenvalue read-off from the block diagonals, used only by the tests.

``eigenvalues_distinct_blocks`` left the library when ``strata.decompose``
moved to the spectral split ``imagealg._eigenbasis``: nothing in the
package calls it.  It stays here as a cross-check of ``char_poly`` and
``rational_roots`` on fiber points whose blocks have distinct sizes, and
``RepeatedBlockSizesError``, which only it raises, is defined here too.
"""

from __future__ import annotations

from jordanlab.errors import (
    JordanLabError,
    NotFullBlockJordanCoordinatesError,
    SizeMismatchError,
)
from jordanlab.reps import Partition, RepPair, jordan_matrix
from jordanlab.scalars import Scalar, exact


class RepeatedBlockSizesError(JordanLabError):
    """Eigenvalue read-off requires pairwise distinct Jordan block sizes."""


def eigenvalues_distinct_blocks(rep: RepPair, p: Partition, diag_values) -> "list[Scalar]":
    """Eigenvalues of X read off the block diagonals, with multiplicities.

    Only valid when the Jordan blocks of Y have pairwise different sizes.
    Once Y = jordan_matrix(p) and every diagonal entry of block a is the
    claimed value lam_a, char(X) is the product of (t - lam_a)^(n_a), so
    the characteristic polynomial is not computed.  Proof: [X, Y^k] =
    k*Y^(k+1), so X maps ker Y^k into itself for every k, and char(X) is
    the product of the characteristic polynomials of the maps X induces on
    the quotients ker Y^k / ker Y^(k-1).  Y maps each basis vector of a
    block to the one before it, so that quotient has the basis e(a, k-1),
    the k-th basis vector of each block a with n_a >= k, and the induced
    matrix has entry X[start_a + k-1, start_b + k-1] at (a, b).  For a != b
    that is on the d = 0 diagonal of block X_ab.  The particular solution
    of fiber_basis(p) is zero there and X minus it commutes with Y, so by
    the fiber_basis theorem the entry vanishes unless n_b <= n_a.  With
    distinct sizes stored in decreasing order the induced matrix is upper
    triangular, and its diagonal is lam_a for every block a with n_a >= k.
    """
    parts = p.parts
    if len(set(parts)) != len(parts):
        raise RepeatedBlockSizesError(
            "eigenvalue read-off requires pairwise distinct block sizes")
    if rep.Y != jordan_matrix(p):
        raise NotFullBlockJordanCoordinatesError(
            "rep must be in the Jordan coordinates of the given partition")
    values = [exact(v) for v in diag_values]
    if len(values) != len(parts):
        raise SizeMismatchError("one diagonal value per block is required")
    offset = 0
    for size, lam in zip(parts, values):
        for i in range(size):
            if rep.X[offset + i, offset + i] != lam:
                raise ValueError(
                    f"X does not carry the claimed value {lam} on block diagonal")
        offset += size
    return sorted(lam for size, lam in zip(parts, values) for _ in range(size))
