"""Cross-check machinery for the orbit-map Jacobian, used only by the tests.

The library computes the differential of the stabilizer orbit map as
truncated series in k[J]/(J^n) (see ``jordanlab.strata.jacobian_rank``).
The tests form it the direct way instead, as n x n matrix products with an
exact inverse, and compare each matrix image with the Toeplitz matrix of
its series row.
"""

from __future__ import annotations

from jordanlab import QMatrix, inverse, jordan_block, x_zero


def polynomial_in_j(n: int, coeffs) -> QMatrix:
    """sum_k coeffs[k] J_n^k, for coefficients of J^0, J^1, ... (at most n)."""
    coeffs = list(coeffs)
    return QMatrix(n, n, tuple(coeffs[j - i] if 0 <= j - i < len(coeffs) else 0
                               for i in range(n) for j in range(n)))


def matrix_differential(n: int, c_coeffs, x_coeffs) -> "list[QMatrix]":
    """The images C^-1 X D - C^-1 D C^-1 X C of D = J^k, k = 1..n-1, at
    C = I + sum c_k J^k and X = x_zero(n) + sum x_k J^k."""
    c = polynomial_in_j(n, [1, *c_coeffs])
    x = x_zero(n) + polynomial_in_j(n, [0, *x_coeffs])
    c_inv = inverse(c)
    left = c_inv @ x
    right = left @ c
    power = QMatrix.identity(n)
    images = []
    for _ in range(1, n):
        power = power @ jordan_block(n)
        images.append(left @ power - c_inv @ power @ right)
    return images
