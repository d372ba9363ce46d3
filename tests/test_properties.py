"""Property tests of ``QMatrix``'s stored form (against the Fraction-entry
matrix it replaced), the fraction-free products, ``poly_at_matrix`` (against
plain Horner), ``char_poly`` (against Faddeev-LeVerrier and sympy), the
elimination kernel (against sympy's rref), the orbit-map series, the text and JSON round trips,
the algebra product (against its termwise oracle, and associativity),
conjugation invariance, the closure of right ideals, rational roots and the
centralizer count of the census (hypothesis, test-only)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import json  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import gcd  # noqa: E402
from unittest import mock  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from jordanlab import (  # noqa: E402
    NcPoly,
    NonSquareError,
    NormalPoly,
    Partition,
    QMatrix,
    RepPair,
    SizeMismatchError,
    SpanBuilder,
    UniPoly,
    census,
    char_poly,
    conjugate,
    exact,
    fiber_basis,
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
from jordanlab.matrices import flat_matmul  # noqa: E402
from jordanlab.reps import _centralizer_supports  # noqa: E402
from jordanlab.scalars import cleared  # noqa: E402
from jordanlab.sampling import rand_normal_poly, rand_rep, rand_unimodular  # noqa: E402
from jordanlab.strata import _orbit_differential  # noqa: E402
from charpoly_oracle import faddeev_leverrier, sympy_det_poly  # noqa: E402
from horner_oracle import horner_poly_at_matrix  # noqa: E402
from multiply_oracle import multiply as oracle_multiply  # noqa: E402
from qmatrix_oracle import QMatrix as OracleQMatrix  # noqa: E402
from orbit_oracle import matrix_differential, polynomial_in_j  # noqa: E402
from span_oracle import EagerSpan  # noqa: E402

SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
BIG = 2 ** 70
WIDE_SCALARS = st.one_of(
    st.just(0),
    st.integers(min_value=-BIG, max_value=BIG),
    st.builds(Fraction, st.integers(min_value=-BIG, max_value=BIG),
              st.integers(min_value=1, max_value=12)),
    st.builds(Fraction, st.integers(min_value=-12, max_value=12),
              st.integers(min_value=1, max_value=12)))
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
def spread_polys(draw):
    """A polynomial of degree up to 40: dense, sparse (about three of four
    coefficients 0) or a multiple of t^m."""
    deg = draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(("dense", "sparse", "power")))
    entry = {"dense": SCALARS, "sparse": st.one_of(st.just(0), st.just(0), st.just(0), SCALARS),
             "power": st.just(0)}[kind]
    lower = draw(st.lists(entry, min_size=deg, max_size=deg))
    return UniPoly(lower + [draw(SCALARS.filter(bool))])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spread_polys(), squares())
def test_poly_at_matrix_matches_plain_horner_in_fewer_products(p, m):
    # Plain Horner makes deg p products; stepping over the zero runs never
    # makes more (proof in the ``poly_at_matrix`` docstring).
    with mock.patch("jordanlab.matrices.flat_matmul", wraps=flat_matmul) as kernel:
        got = poly_at_matrix(p, m)
    assert got == horner_poly_at_matrix(p, m)
    assert kernel.call_count <= p.degree


@st.composite
def char_poly_cases(draw):
    """An n x n matrix, n <= 12: int, small Fraction or wide (up to 2^70)
    entries, zero, scalar, or nilpotent (strictly upper triangular,
    conjugated by a unimodular matrix)."""
    n = draw(st.integers(min_value=0, max_value=12))
    kind = draw(st.sampled_from(("int", "fraction", "wide", "zero", "scalar", "nilpotent")))
    if kind == "zero":
        return QMatrix.zeros(n)
    if kind == "scalar":
        return QMatrix.identity(n).scale(draw(WIDE_SCALARS))
    if kind == "nilpotent":
        entries = draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
        upper = QMatrix(n, n, tuple(v if i // n < i % n else 0 for i, v in enumerate(entries)))
        c, c_inv = rand_unimodular(random.Random(draw(SEEDS)), n)
        return c @ upper @ c_inv
    entry = {"int": st.integers(min_value=-9, max_value=9), "fraction": SCALARS,
             "wide": WIDE_SCALARS}[kind]
    return QMatrix(n, n, tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(char_poly_cases())
@example(QMatrix.zeros(0))
@example(QMatrix.identity(12).scale(Fraction(BIG, 7)))
@example(QMatrix(12, 12, tuple(BIG - 3 * i if i % 5 else -i for i in range(144))))
@example(QMatrix(12, 12, tuple(int(i % 13 == 1) for i in range(144))))  # J_12
def test_char_poly_matches_faddeev_leverrier_and_sympy(m):
    got = char_poly(m)
    assert got == faddeev_leverrier(m) == sympy_det_poly(m)
    assert got.degree == m.rows and got.coeffs[-1] == 1

@st.composite
def scaled_rows(draw):
    """Integer rows of one length up to 64, each a combination of a few
    sparse base rows times a factor 2-9: the rows share factors, and their
    pivots, as the elimination meets them, are seldom 1."""
    length = draw(st.integers(min_value=1, max_value=64))
    entry = st.one_of(st.just(0), st.integers(min_value=-12, max_value=12))
    base = draw(st.lists(st.lists(entry, min_size=length, max_size=length),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=len(base), max_size=len(base)))
        factor = draw(st.integers(min_value=2, max_value=9))
        rows.append([factor * sum(c * b[i] for c, b in zip(coeffs, base))
                     for i in range(length)])
    return length, rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scaled_rows())
def test_span_basis_is_sympy_rref(length_and_rows):
    sympy = pytest.importorskip("sympy")
    length, rows = length_and_rows
    span = SpanBuilder(length)
    for row in rows:
        span.add(row)
    reduced, pivots = sympy.Matrix(rows).rref()
    assert span.pivots == list(pivots)
    assert span.basis_vectors() == [
        tuple(exact(Fraction(int(v.p), int(v.q))) for v in reduced.row(i))
        for i in range(len(pivots))]


@st.composite
def span_programs(draw):
    """A length <= 5 and up to 16 steps on a span: adds and membership tests
    of combinations of a few rational vectors (so zero and dependent vectors
    are frequent), re-adds of the last vector added, reads and copies."""
    length = draw(st.integers(min_value=0, max_value=5))
    base = draw(st.lists(st.lists(SCALARS, min_size=length, max_size=length),
                         min_size=1, max_size=4))
    vectors = st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=len(base), max_size=len(base)).map(
        lambda cs: [sum((c * b[i] for c, b in zip(cs, base)), Fraction(0))
                    for i in range(length)])
    step = st.one_of(st.tuples(st.sampled_from(("add", "contains")), vectors),
                     st.tuples(st.sampled_from(("repeat", "read", "copy")), st.none()))
    return length, draw(st.lists(step, max_size=16))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(span_programs())
@example((0, [("add", []), ("read", None), ("copy", None), ("repeat", None)]))
@example((1, [("add", [Fraction(-2, 3)]), ("read", None), ("add", [0]), ("copy", None),
              ("repeat", None), ("contains", [5]), ("read", None)]))
def test_span_matches_the_eager_oracle(program):
    """The echelon span against the back-substituting one it replaced: the
    same row from every add, rank, membership and reduced rows; no row an
    add returned changes later, and a copy is independent of its source."""
    length, steps = program
    span, oracle = SpanBuilder(length), EagerSpan(length)
    returned, copied, last = [], [], None
    for kind, vec in steps:
        if kind == "repeat":
            kind, vec = "add", last
        if kind == "add" and vec is not None:
            last = vec
            row = span.add(vec)
            assert row == oracle.add(vec)
            if row is not None:
                returned.append((row, list(row)))
        elif kind == "contains":
            assert span.contains(vec) == oracle.contains(vec)
        elif kind == "read":
            assert (span.rows, span.pivots) == (oracle.rows, oracle.pivots)
        elif kind == "copy":
            copied.append((span, list(span.rows), list(span.pivots)))
            span = SpanBuilder(length, list(span.rows), list(span.pivots))
            oracle = EagerSpan(length, list(oracle.rows), list(oracle.pivots))
        assert span.rank == oracle.rank
        assert all(row == value for row, value in returned)
    assert (span.rows, span.pivots) == (oracle.rows, oracle.pivots)
    for source, rows, pivots in copied:
        assert (source.rows, source.pivots) == (rows, pivots)


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


@st.composite
def small_partitions(draw):
    """A partition of some n <= 14, its parts drawn until they sum to n."""
    n = draw(st.integers(min_value=1, max_value=14))
    parts = []
    while n:
        parts.append(draw(st.integers(min_value=1, max_value=n)))
        n -= parts[-1]
    return Partition.of(parts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_partitions())
def test_census_counts_the_fiber_basis(p):
    # the closed form sum of min(p_a, p_b) is the test's independent count
    count = len(_centralizer_supports(p))
    assert count == len(fiber_basis(p).basis) == sum(min(a, b) for a in p for b in p)
    assert {row.partition: row.fiber_dim for row in census(p.n)}[p] == count


# -- QMatrix against the Fraction-entry oracle ------------------------------


@st.composite
def oracle_cases(draw):
    """Shapes 0..6, entries for two rows x cols matrices and one cols x
    inner matrix, a scalar, and whether the entries are given as text."""
    rows, cols, inner = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))

    def entries(count):
        return draw(st.lists(WIDE_SCALARS, min_size=count, max_size=count))

    return (rows, cols, inner, entries(rows * cols), entries(rows * cols),
            entries(cols * inner), draw(WIDE_SCALARS), draw(st.booleans()))


def assert_stored_form(m: QMatrix) -> None:
    # den >= 1 with gcd(content, den) = 1 (so zero has den 1), and the
    # numerators are what ``cleared`` makes of the entries.
    assert m.den >= 1 and gcd(m.den, *m.nums) == 1
    assert m.den == 1 or any(m.nums)
    assert cleared(m.entries) == (list(m.nums), m.den)


def assert_matches_oracle(m: QMatrix, o: OracleQMatrix) -> None:
    assert_stored_form(m)
    assert (m.rows, m.cols) == (o.rows, o.cols)
    assert m.entries == o.entries
    assert [type(v) for v in m.entries] == [type(v) for v in o.entries]
    assert repr(m) == repr(o) and str(m) == str(o)
    assert matrix_to_json(m) == matrix_to_json(o)
    assert m.is_zero() == o.is_zero()
    assert [m.row(i) for i in range(m.rows)] == [o.row(i) for i in range(o.rows)]
    assert all(m[i, j] == o[i, j] for i in range(m.rows) for j in range(m.cols))
    assert m.__reduce__()[1] == o.__reduce__()[1]
    again = pickle.loads(pickle.dumps(m))
    assert again == m and hash(again) == hash(m)
    # A result built from numerators equals the same matrix built from its
    # entries: the stored form is canonical.
    fresh = QMatrix(o.rows, o.cols, o.entries)
    assert fresh == m and hash(fresh) == hash(m) and (fresh.nums, fresh.den) == (m.nums, m.den)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_qmatrix_matches_the_fraction_entry_oracle(case):
    rows, cols, inner, a, b, c, s, as_text = case

    def both(r, k, values):
        given = tuple(str(v) for v in values) if as_text else tuple(values)
        return QMatrix(r, k, given), OracleQMatrix(r, k, given)

    (ma, oa), (mb, ob), (mc, oc) = both(rows, cols, a), both(rows, cols, b), both(cols, inner, c)
    for m, o in [(ma, oa), (mb, ob), (mc, oc), (ma + mb, oa + ob), (ma - mb, oa - ob),
                 (ma - ma, oa - oa), (-ma, -oa), (ma.scale(s), oa.scale(s)), (s * ma, s * oa),
                 (ma @ mc, oa @ oc), (ma.scale(0) @ mc, oa.scale(0) @ oc)]:
        assert_matches_oracle(m, o)
    assert (ma == mb) == (oa == ob)
    assert (ma + mb == mb + ma) and (ma - mb == -(mb - ma))
    if rows == cols:
        assert ma.trace() == oa.trace() and type(ma.trace()) is type(oa.trace())
    else:
        with pytest.raises(NonSquareError):
            ma.trace()
    if rows != cols:
        with pytest.raises(SizeMismatchError):
            ma @ mb
        with pytest.raises(SizeMismatchError):
            oa @ ob


def test_qmatrix_refuses_floats_as_the_oracle_does():
    for cls in (QMatrix, OracleQMatrix):
        with pytest.raises(TypeError):
            cls(1, 1, (0.5,))
        with pytest.raises(TypeError):
            cls.identity(2).scale(0.5)
        with pytest.raises(ValueError):
            cls(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            cls(-1, 0, ())
