"""Property tests of the fraction-free products, the orbit-map series, the
text and JSON round trips, the algebra product (against its termwise oracle,
and associativity), conjugation invariance, the closure of right ideals and
rational roots (hypothesis, test-only)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import json  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from jordanlab import (  # noqa: E402
    NcPoly,
    NormalPoly,
    QMatrix,
    RepPair,
    UniPoly,
    conjugate,
    image_algebra,
    matrix_from_json,
    matrix_to_json,
    multiply,
    normal_form,
    parse_poly,
    poly_at_matrix,
    rational_roots,
)
from jordanlab.imagealg import _right_ideal  # noqa: E402
from jordanlab.sampling import rand_normal_poly, rand_rep, rand_unimodular  # noqa: E402
from jordanlab.strata import _orbit_differential  # noqa: E402
from multiply_oracle import multiply as oracle_multiply  # noqa: E402
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


WORDS = st.text(alphabet="xy", max_size=6)
NC_POLYS = st.dictionaries(WORDS, SCALARS, max_size=5).map(NcPoly)
NORMAL_POLYS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), SCALARS,
                               max_size=5).map(NormalPoly)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(NC_POLYS)
def test_ncpoly_text_round_trip(f):
    assert parse_poly(str(f)) == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(NORMAL_POLYS)
def test_normal_poly_text_round_trip(g):
    assert normal_form(parse_poly(str(g))) == g


@st.composite
def any_shape(draw):
    """A matrix of any shape up to 3 x 3, 0 x k and k x 0 included."""
    return draw(matrices(draw(SIZES), draw(SIZES)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(any_shape())
def test_matrix_json_round_trip(m):
    assert matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))) == m


SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
SEEDED_NORMAL_POLYS = SEEDS.map(lambda seed: rand_normal_poly(random.Random(seed), 4))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SEEDED_NORMAL_POLYS, SEEDED_NORMAL_POLYS, SEEDED_NORMAL_POLYS)
def test_multiply_is_associative(f, g, h):
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


# Shaped like the benchmark's products: up to 12 terms of degree <= 40 with
# denominators 1-4.
PRODUCT_OPERANDS = st.dictionaries(
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=12).map(NormalPoly)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PRODUCT_OPERANDS, PRODUCT_OPERANDS)
def test_multiply_matches_the_termwise_product(f, g):
    product = multiply(f, g)
    assert product == oracle_multiply(f, g)
    for _, c in product.items():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(SEEDS, st.integers(min_value=1, max_value=6))
def test_image_dim_is_conjugation_invariant(seed, n):
    rng = random.Random(seed)
    rep = rand_rep(rng, n)
    c, c_inv = rand_unimodular(rng, n)
    conjugated = RepPair(c @ rep.X @ c_inv, c @ rep.Y @ c_inv)  # re-verifies the relation
    assert conjugate(rep, c, c_inv) == conjugated
    assert image_algebra(conjugated).dim == image_algebra(rep).dim


@st.composite
def reps_with_seeds(draw):
    """A rand_rep of size n <= 7 and 1-4 integer seed matrices, not
    necessarily in its image algebra."""
    rep = rand_rep(random.Random(draw(SEEDS)), draw(st.integers(min_value=1, max_value=7)))
    entries = st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=rep.n ** 2, max_size=rep.n ** 2)
    return rep, draw(st.lists(entries, min_size=1, max_size=4))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(reps_with_seeds())
def test_right_ideal_is_closed_under_x_and_y(rep_and_seeds):
    # The closure does not test every product; this certificate does.
    rep, seeds = rep_and_seeds
    span = _right_ideal(rep, seeds)
    for row in span.rows:
        r = QMatrix(rep.n, rep.n, tuple(row))
        assert span.contains((r @ rep.X).entries)
        assert span.contains((r @ rep.Y).entries)
    for seed in seeds:
        assert span.contains(seed)


ROOTS = st.one_of(SCALARS, st.fractions(min_value=-2 ** 64, max_value=2 ** 64,
                                         max_denominator=2 ** 40))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(ROOTS, max_size=7), SCALARS.filter(bool))
def test_rational_roots_of_a_product_of_linear_factors(roots, c):
    expected = sorted((r, roots.count(r)) for r in set(roots))
    assert rational_roots(UniPoly.from_roots(roots) * c) == expected
