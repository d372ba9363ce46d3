"""Exact scalars, matrices and the elimination kernel."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from jordanlab import (
    InputFormatError,
    NonSquareError,
    OutOfRangeError,
    QMatrix,
    SingularMatrixError,
    SizeMismatchError,
    SpanBuilder,
    UniPoly,
    block_diag,
    char_poly,
    inverse,
    is_nilpotent,
    matrix_from_json,
    matrix_to_json,
    nilpotency_index,
    nullspace_basis,
    parse_scalar,
    poly_at_matrix,
    poly_ext_gcd,
    rank,
    rational_roots,
    scalar_str,
    solve,
    squarefree_part,
)
from jordanlab.reps import jordan_block
from jordanlab.sampling import rand_rep
from jordanlab.scalars import cleared, content_free, exact, primitive_integral


def rand_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def rand_matrix(rng, rows, cols):
    return QMatrix(rows, cols, tuple(rand_rational(rng) for _ in range(rows * cols)))


def naive_rank(m):
    """Independent oracle: plain fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# -- rank --------------------------------------------------------------------


def test_rank_jordan_block():
    assert rank(jordan_block(3)) == 2


def test_rank_zero_matrix():
    assert rank(QMatrix.zeros(3)) == 0


def test_rank_proportional_rows():
    assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_matches_naive_oracle():
    rng = random.Random(1)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == naive_rank(m)


# -- nullspace ---------------------------------------------------------------


def test_nullspace_identity_empty():
    assert nullspace_basis(QMatrix.identity(3)) == []


def test_nullspace_one_by_two():
    assert nullspace_basis(QMatrix.from_rows([[1, -1]])) == [(1, 1)]


def test_nullspace_jordan_two():
    assert nullspace_basis(jordan_block(2)) == [(1, 0)]


def test_rank_nullity():
    rng = random.Random(2)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + len(nullspace_basis(m)) == m.cols


def test_nullspace_vectors_annihilated():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        for vec in nullspace_basis(m):
            image = [sum(m[i, j] * vec[j] for j in range(m.cols)) for i in range(m.rows)]
            assert all(v == 0 for v in image)


# -- characteristic polynomial -------------------------------------------------


def test_char_poly_jordan_two():
    assert char_poly(jordan_block(2)) == UniPoly((0, 0, 1))


def test_char_poly_diagonal():
    assert char_poly(QMatrix.diagonal([3, 5])) == UniPoly((15, -8, 1))


def test_char_poly_identity():
    assert char_poly(QMatrix.identity(2)) == UniPoly((1, -2, 1))


def test_char_poly_rejects_rectangular():
    with pytest.raises(NonSquareError):
        char_poly(QMatrix.zeros(2, 3))


def test_char_poly_block_diagonal_multiplicative():
    rng = random.Random(4)
    for _ in range(15):
        blocks = []
        for _ in range(rng.randint(2, 3)):
            size = rng.randint(1, 3)
            b = jordan_block(size) + QMatrix.identity(size).scale(rand_rational(rng))
            blocks.append(b)
        product = UniPoly.one()
        for b in blocks:
            product = product * char_poly(b)
        assert char_poly(block_diag(blocks)) == product


def test_char_poly_fractional_entries():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(-1, 4)]])
    p = char_poly(m)
    # trace and determinant read off the coefficients
    assert p[1] == -(Fraction(1, 2) + Fraction(-1, 4))
    assert p[0] == Fraction(1, 2) * Fraction(-1, 4) - Fraction(1, 3)
    assert poly_at_matrix(p, m).is_zero()  # Cayley-Hamilton


# -- nilpotency -----------------------------------------------------------------


def test_nilpotency_jordan_four():
    assert nilpotency_index(jordan_block(4)) == 4


def test_nilpotency_zero_matrix():
    assert nilpotency_index(QMatrix.zeros(3)) == 1


def test_nilpotency_identity_not_nilpotent():
    assert nilpotency_index(QMatrix.identity(3)) is None


def test_is_nilpotent_edge_cases():
    assert is_nilpotent(QMatrix.zeros(0))
    assert is_nilpotent(jordan_block(5))
    assert not is_nilpotent(jordan_block(5) + QMatrix.diagonal([0, 0, 0, 0, 1]))
    with pytest.raises(NonSquareError):
        is_nilpotent(QMatrix.zeros(2, 3))


def test_nilpotency_index_is_least():
    rng = random.Random(5)
    for _ in range(15):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        m = block_diag([jordan_block(s) for s in sizes])
        idx = nilpotency_index(m)
        assert idx == max(sizes)
        assert idx <= m.rows
        if idx > 1:
            assert not poly_at_matrix(UniPoly((0,) * (idx - 1) + (1,)), m).is_zero()


# -- fraction-free products against Fraction oracles -------------------------------


def naive_product(a: QMatrix, b: QMatrix) -> "list[Fraction]":
    """Oracle: the Fraction triple loop, row-major."""
    return [sum((Fraction(a[i, t]) * Fraction(b[t, j]) for t in range(a.cols)), Fraction(0))
            for i in range(a.rows) for j in range(b.cols)]


def operand(rng, rows, cols, kind):
    """Entries of one kind: small ints, small fractions, or fractions whose
    numerators and denominators run to 40 bits; about a quarter are 0."""
    def entry():
        if rng.random() < 0.25:
            return 0
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "mixed":
            return rand_rational(rng)
        return Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40))

    return QMatrix(rows, cols, tuple(entry() for _ in range(rows * cols)))


def assert_exact_entries(got, want):
    """Equal values, and an entry is an int exactly when it is integral."""
    assert list(got) == want
    for v, w in zip(got, want):
        assert type(v) is (int if w.denominator == 1 else Fraction)


def test_matmul_matches_fraction_triple_loop():
    rng = random.Random(41)
    kinds = ("int", "mixed", "large")
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 0, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(355)]
    for idx, (n, k, m) in enumerate(shapes):
        a = operand(rng, n, k, kinds[idx % 3])
        b = operand(rng, k, m, kinds[(idx // 3) % 3])
        got = a @ b
        assert (got.rows, got.cols) == (n, m)
        assert_exact_entries(got.entries, naive_product(a, b))


def naive_poly_at(p: UniPoly, m: QMatrix) -> "list[Fraction]":
    """Oracle: Horner's rule in Fraction arithmetic, row-major."""
    n = m.rows
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = [[sum((acc[i][t] * Fraction(m[t, j]) for t in range(n)), Fraction(0))
                + (Fraction(c) if i == j else 0) for j in range(n)] for i in range(n)]
    return [v for row in acc for v in row]


def test_poly_at_matrix_matches_fraction_horner():
    rng = random.Random(43)
    polys = [UniPoly.zero(), UniPoly((5,)), UniPoly((Fraction(-3, 4),)),
             UniPoly((0, Fraction(1, 2), 0, Fraction(-7, 3))), UniPoly((1, 2, 1))]
    polys += [UniPoly([rand_rational(rng) for _ in range(rng.randint(1, 6))])
              for _ in range(40)]
    for idx, p in enumerate(polys):
        for n in (0, 1, rng.randint(2, 5)):
            m = operand(rng, n, n, ("int", "mixed", "large")[idx % 3])
            got = poly_at_matrix(p, m)
            assert (got.rows, got.cols) == (n, n)
            assert_exact_entries(got.entries, naive_poly_at(p, m))


# -- solve / inverse -------------------------------------------------------------


def test_solve_and_inverse():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        if rank(m) < n:
            continue
        b = [rand_rational(rng) for _ in range(n)]
        x = solve(m, b)
        assert x is not None
        assert [sum(m[i, j] * x[j] for j in range(n)) for i in range(n)] == b
        assert inverse(m) @ m == QMatrix.identity(n)


def test_solve_inconsistent():
    m = QMatrix.from_rows([[1, 1], [1, 1]])
    assert solve(m, [0, 1]) is None


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(QMatrix.zeros(3))
    rank_two = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3), 1],
                                  [Fraction(3, 2), 1, 3],
                                  [0, Fraction(-2, 7), 5]])
    with pytest.raises(SingularMatrixError):
        inverse(rank_two)


def test_inverse_non_square():
    with pytest.raises(NonSquareError):
        inverse(QMatrix.zeros(2, 3))


def test_inverse_empty():
    assert inverse(QMatrix.zeros(0, 0)) == QMatrix.zeros(0, 0)


def test_solve_rhs_length_mismatch():
    with pytest.raises(SizeMismatchError):
        solve(QMatrix.identity(2), [1, 2, 3])


def oracle_matrix(rng, rows, cols):
    """Fractional entries with many zeros; every third matrix has low rank."""
    def entry():
        return 0 if rng.random() < 0.3 else rand_rational(rng)

    if rows and cols and rng.random() < 1 / 3:
        k = rng.randint(0, min(rows, cols) - 1)
        a = QMatrix(rows, k, tuple(entry() for _ in range(rows * k)))
        b = QMatrix(k, cols, tuple(entry() for _ in range(k * cols)))
        return a @ b
    return QMatrix(rows, cols, tuple(entry() for _ in range(rows * cols)))


def test_kernel_views_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m):
        return sympy.Matrix(m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator)
                                             for v in m.entries])

    def from_sympy(vec):
        return tuple(Fraction(int(v.p), int(v.q)) for v in vec)

    rng = random.Random(7)
    for _ in range(300):
        m = oracle_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        ms = to_sympy(m)
        r = ms.rank()
        assert rank(m) == r
        assert nullspace_basis(m) == [from_sympy(v) for v in ms.nullspace()]
        if m.is_square:
            if r == m.rows:
                assert inverse(m).entries == from_sympy(ms.inv())
            else:
                with pytest.raises(SingularMatrixError):
                    inverse(m)
        if rng.random() < 0.5:  # a consistent right-hand side
            x0 = [rand_rational(rng) for _ in range(m.cols)]
            b = [sum(m[i, j] * x0[j] for j in range(m.cols)) for i in range(m.rows)]
        else:
            b = [rand_rational(rng) for _ in range(m.rows)]
        x = solve(m, b)
        consistent = ms.row_join(sympy.Matrix(m.rows, 1, b)).rank() == r
        assert (x is not None) == consistent
        if x is not None:
            assert [sum(m[i, j] * x[j] for j in range(m.cols)) for i in range(m.rows)] == b
            pivots = set(ms.rref()[1])
            assert all(x[j] == 0 for j in range(m.cols) if j not in pivots)


# -- span builder ----------------------------------------------------------------


def test_primitive_integral():
    assert primitive_integral([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2, 0]
    assert primitive_integral([-4, 6, Fraction(4, 2)]) == [-2, 3, 1]
    assert primitive_integral([0, 0]) == [0, 0]
    assert primitive_integral([]) == []


def test_cleared_and_content_free():
    assert cleared([Fraction(1, 2), Fraction(-1, 3), 4]) == ([3, -2, 24], 6)
    assert cleared([2, -4, 0]) == ([2, -4, 0], 1)
    assert cleared([]) == ([], 1)
    assert content_free([6, -9, 0]) == [2, -3, 0]
    assert content_free([0, 0]) == [0, 0]
    assert content_free([]) == []


def test_span_rows_are_canonical():
    """Same span, any order and scaling: identical primitive rows, positive pivots."""
    rng = random.Random(8)
    span = SpanBuilder(2)
    span.add((2, 4))
    assert span.rows == [[1, 2]]
    for _ in range(30):
        length = rng.randint(1, 6)
        vectors = [[0 if rng.random() < 0.3 else rand_rational(rng) for _ in range(length)]
                   for _ in range(rng.randint(1, 6))]
        vectors.append([sum(c) for c in zip(*vectors)])  # a dependent vector
        results = set()
        for _ in range(4):
            rng.shuffle(vectors)
            span = SpanBuilder(length)
            for vec in vectors:
                factor = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
                span.add([factor * v for v in vec])
            for row, p in zip(span.rows, span.pivots):
                assert row[p] > 0
                assert primitive_integral(row) == row
                assert all(row[q] == 0 for q in span.pivots if q != p)
            results.add((tuple(map(tuple, span.rows)), tuple(span.pivots)))
        assert len(results) == 1


def test_span_integral_input_is_made_primitive():
    """Integer rows with a common factor give the same canonical rows as
    their rational multiples, and the span never holds the caller's list."""
    rng = random.Random(44)
    for _ in range(40):
        length = rng.randint(1, 6)
        vectors = [[rng.randint(-6, 6) * 2 for _ in range(length)]
                   for _ in range(rng.randint(1, 6))]
        integral, rational = SpanBuilder(length), SpanBuilder(length)
        for vec in vectors:
            assert integral.add(vec) == rational.add([Fraction(v, 7) for v in vec])
        assert (integral.rows, integral.pivots) == (rational.rows, rational.pivots)
        for row in integral.rows:
            assert type(row) is list and primitive_integral(row) == row
    span, vec, tup = SpanBuilder(3), [1, 0, 2], (0, 1, 5)
    assert span.add(vec) and span.add(tup)
    vec[0] = 9
    assert span.rows == [[1, 0, 2], [0, 1, 5]]


# -- polynomial helpers -----------------------------------------------------------


def test_squarefree_part():
    p = UniPoly.from_roots([2, 2, 3])
    assert squarefree_part(p) == UniPoly.from_roots([2, 3])


def test_ext_gcd():
    a = UniPoly.from_roots([1, 2])
    b = UniPoly.from_roots([3])
    g, u, v = poly_ext_gcd(a, b)
    assert g == UniPoly.one()
    assert u * a + v * b == UniPoly.one()


def test_rational_roots_with_multiplicity():
    p = UniPoly.from_roots([Fraction(1, 2), Fraction(1, 2), -3])
    assert rational_roots(p) == [(-3, 1), (Fraction(1, 2), 2)]


def test_rational_roots_irrational():
    assert rational_roots(UniPoly((-2, 0, 1))) is None  # t^2 - 2


def test_rational_roots_zero_root():
    assert rational_roots(UniPoly((0, 0, 1))) == [(0, 2)]


def test_rational_roots_stop_where_the_descent_turns():
    # (t - 5)(t^2 + 1): after the root 5 the descent on t^2 + 1 reaches
    # x = 0, where g(0) = 1 > 0 but g'(0) = 0.
    assert rational_roots(UniPoly.from_roots([5]) * UniPoly((1, 0, 1))) is None
    # -2t^2 + 3t + 9/2 = -(2t^2 - 3t - 9/2): t = (3 +- 3*sqrt(5))/4.
    assert rational_roots(UniPoly((Fraction(9, 2), 3, -2))) is None
    # a negative leading coefficient L reverses the order of a_i = L*r_i
    assert rational_roots(UniPoly.from_roots([Fraction(-7, 3), 4, 4]) * -6) == [
        (Fraction(-7, 3), 1), (4, 2)]


def test_rational_roots_criterion_11_draw_22():
    """Draw 22 of criterion 11 (n = 8, 37-bit numerators) has no rational
    root; a divisor search over its coefficients took seconds to show it."""
    rng = random.Random(0)
    for _ in range(23):
        rep = rand_rep(rng, rng.randint(1, 8))
    assert rep.n == 8
    assert rational_roots(char_poly(rep.X)) is None


def rand_wide_rational(rng, bits):
    """A nonzero rational with a numerator of up to `bits` bits over a
    denominator of up to 40 bits."""
    num = rng.getrandbits(bits) - 2 ** (bits - 1)
    return Fraction(num or 1, rng.getrandbits(40) + 1)


def rand_irreducible_quadratic(rng):
    """t^2 + b t + c with a discriminant that is not a square."""
    while True:
        b, c = rng.randint(-2 ** 30, 2 ** 30), rng.randint(-2 ** 60, 2 ** 60)
        disc = b * b - 4 * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return UniPoly((c, b, 1))


def test_rational_roots_match_sympy_factor_list():
    """p splits over Q iff every factor of sympy's factor_list is linear, and
    then those linear factors give the roots and multiplicities.  Thirds of
    the draws: +-rational multiples of products of (t - r)^m with roots of
    60 to 90 bits over 40-bit denominators, the same times an irreducible
    quadratic, and dense random polynomials."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(14)
    for i in range(300):
        kind = i % 3
        if kind == 2:
            p = UniPoly([rand_wide_rational(rng, rng.choice([8, 64]))
                         for _ in range(rng.randint(2, 8))])
        else:
            roots = [rand_wide_rational(rng, rng.randint(60, 90)) for _ in range(rng.randint(1, 4))]
            p = UniPoly.from_roots(r for r in roots for _ in range(rng.randint(1, 3)))
            p = p * (rng.choice([-1, 1]) * rand_wide_rational(rng, 20))
            if kind == 1:
                p = p * rand_irreducible_quadratic(rng)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        _, factors = sympy.Poly(coeffs, t, domain="QQ").factor_list()
        got = rational_roots(p)
        if all(f.degree() == 1 for f, _ in factors):
            roots = ((-f.nth(0) / f.nth(1), m) for f, m in factors)
            assert got == sorted((exact(Fraction(int(r.p), int(r.q))), m) for r, m in roots)
        else:
            assert got is None
        if kind != 2:
            assert (got is not None) == (kind == 0)


@pytest.mark.parametrize("coeffs, text", [
    ((), "0"),
    ((5,), "5"),
    ((Fraction(-3, 4),), "-3/4"),
    ((0, -1), "-t"),
    ((0, 1), "t"),
    ((1, 0, -1), "-t^2 + 1"),
    ((Fraction(1, 2), 0, 0, Fraction(-7, 3)), "-7/3*t^3 + 1/2"),
    ((-2, 1, 0, 3, 0, -1), "-t^5 + 3*t^3 + t - 2"),
    ((0, 0, Fraction(5, 2)), "5/2*t^2"),
])
def test_unipoly_text_golden(coeffs, text):
    assert str(UniPoly(coeffs)) == text
    assert UniPoly(coeffs).to_text("s") == text.replace("t", "s")


# -- json -------------------------------------------------------------------------


def test_matrix_json_round_trip():
    m = QMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(-7, 3), 4]])
    data = json.loads(json.dumps(matrix_to_json(m)))
    assert matrix_from_json(data) == m
    assert data["entries"][0][1] == "1/2"


@pytest.mark.parametrize("data", [
    [["0"]],
    {"rows": "1", "cols": 1, "entries": [["0"]]},
    {"rows": 1, "cols": 1},
    {"rows": 1, "cols": 2, "entries": [["0"]]},
    {"rows": 1, "cols": 1, "entries": [[0]]},
    {"rows": 1, "cols": 1, "entries": [["1e400"]]},
])
def test_matrix_from_json_rejects_bad_shape_or_type(data):
    with pytest.raises(InputFormatError):
        matrix_from_json(data)


@pytest.mark.parametrize("text, value", [("3", 3), ("-2/4", Fraction(-1, 2)), (" 7 ", 7),
                                         ("+1/3", Fraction(1, 3))])
def test_parse_scalar_reads_rational_text(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["1e1000000", "1.5", "0x10", "1_0", "", "1/-2", "1 / 2"])
def test_parse_scalar_rejects_other_text(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_parse_scalar_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


def test_scalar_str_too_long_is_out_of_range():
    for value in (10 ** 5000, -10 ** 5000, Fraction(1, 10 ** 5000), Fraction(-10 ** 5000, 7)):
        with pytest.raises(OutOfRangeError, match="about 5001 digits"):
            scalar_str(value)
    assert scalar_str(-10 ** 4299) == "-1" + "0" * 4299


def test_entries_normalized_to_int():
    m = QMatrix(1, 2, (Fraction(4, 2), Fraction(1, 3)))
    assert m[0, 0] == 2 and isinstance(m[0, 0], int)
    assert m[0, 1] == Fraction(1, 3)
