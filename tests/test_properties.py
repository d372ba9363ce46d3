"""Property tests of the fraction-free products and of the orbit-map series
(hypothesis, test-only)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from jordanlab import QMatrix, UniPoly, poly_at_matrix  # noqa: E402
from jordanlab.strata import _orbit_differential  # noqa: E402
from orbit_oracle import matrix_differential, polynomial_in_j  # noqa: E402

SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
SIZES = st.integers(min_value=0, max_value=3)


def matrices(rows: int, cols: int):
    return st.lists(SCALARS, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: QMatrix(rows, cols, tuple(entries)))


@st.composite
def chains(draw):
    """Three small fractional matrices that can be multiplied in a row."""
    n, k, m, l = (draw(SIZES) for _ in range(4))
    return draw(matrices(n, k)), draw(matrices(k, m)), draw(matrices(m, l))


@st.composite
def squares(draw):
    n = draw(SIZES)
    return draw(matrices(n, n))


POLYS = st.lists(SCALARS, max_size=4).map(UniPoly)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(chains())
def test_matmul_is_associative(abc):
    a, b, c = abc
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(POLYS, POLYS, squares())
def test_poly_at_matrix_is_multiplicative(p, q, m):
    assert poly_at_matrix(p * q, m) == poly_at_matrix(p, m) @ poly_at_matrix(q, m)


@st.composite
def orbit_points(draw):
    """A size n <= 8 with n - 1 coefficients each for C and X."""
    n = draw(st.integers(min_value=2, max_value=8))
    coeffs = st.lists(SCALARS, min_size=n - 1, max_size=n - 1)
    return n, draw(coeffs), draw(coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(orbit_points())
def test_orbit_series_is_the_matrix_differential(point):
    n, c, x = point
    images = matrix_differential(n, c, x)
    assert images == [polynomial_in_j(n, row) for row in _orbit_differential(n, c)]
