"""Representation constructors, the fiber solver and canonical parameters."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest

from jordanlab import (
    CanonicalParams,
    NormalPoly,
    NotFullBlockJordanCoordinatesError,
    OutOfRangeError,
    Partition,
    QMatrix,
    RelationViolationError,
    RepPair,
    SizeMismatchError,
    UniPoly,
    Violation,
    WitnessResult,
    block_diag,
    canonical_pair,
    char_poly,
    conjugate,
    epsilon_rep,
    evaluate,
    extract_params,
    faithful_witness,
    fiber_basis,
    full_block_canonicalize,
    is_nilpotent,
    jordan_block,
    jordan_matrix,
    nilpotency_index,
    nullspace_basis,
    parse_poly,
    poly_at_matrix,
    rational_roots,
    squarefree_part,
    verify_rep,
    x_zero,
)
from jordanlab.sampling import (
    rand_fiber_point,
    rand_nonzero_rational,
    rand_normal_poly,
    rand_rational,
    rand_rep,
    rand_stabilizer_element,
    rand_unimodular,
)
from blocks_oracle import RepeatedBlockSizesError, eigenvalues_distinct_blocks
from centralizer_oracle import is_b_toeplitz, sylvester_operator
from charpoly_oracle import sympy_char_poly
from orbit_oracle import polynomial_in_j


def paper_fiber_dim(p: Partition) -> int:
    """Independent oracle: (2r-1)n_1 + (2r-3)n_2 + ... + n_r, ascending parts."""
    asc = p.ascending()
    r = len(asc)
    return sum((2 * (r - i) - 1) * asc[i] for i in range(r))


def min_sum_fiber_dim(p: Partition) -> int:
    """Second oracle: sum over block pairs of min(n_i, n_j)."""
    return sum(min(a, b) for a in p.parts for b in p.parts)


# -- partitions and basic matrices -----------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)


def test_jordan_matrix_single():
    assert jordan_matrix(Partition((1,))) == QMatrix.zeros(1)


def test_jordan_matrix_blocks():
    m = jordan_matrix(Partition((2, 1)))
    assert m == QMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


def test_jordan_matrix_full_block_nilpotency():
    for n in range(1, 8):
        assert nilpotency_index(jordan_matrix(Partition((n,)))) == n


# -- x_zero ------------------------------------------------------------------------


def test_x_zero_two_is_zero():
    assert x_zero(2).is_zero()


def test_x_zero_three_superdiagonal():
    assert x_zero(3) == QMatrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 0, 0]])


def test_x_zero_relation():
    for n in range(1, 13):
        j = jordan_block(n)
        assert x_zero(n) @ j - j @ x_zero(n) == j @ j


# -- verification --------------------------------------------------------------------


def test_verify_violation_residual():
    result = verify_rep(QMatrix.diagonal([1, 2]), jordan_block(2))
    assert isinstance(result, Violation)
    assert result.residual == QMatrix.from_rows([[0, -1], [0, 0]])


def test_verify_commuting_pair():
    result = verify_rep(QMatrix.identity(2), jordan_block(2))
    assert isinstance(result, RepPair)


def test_verify_fiber_shift_by_identity():
    x = x_zero(4) + QMatrix.identity(4).scale(7)
    assert isinstance(verify_rep(x, jordan_block(4)), RepPair)


def test_verify_size_mismatch():
    with pytest.raises(SizeMismatchError):
        verify_rep(QMatrix.identity(2), QMatrix.identity(3))


def test_verify_checks_the_relation_once(monkeypatch):
    from jordanlab import reps

    calls = 0
    residual = reps._relation_residual

    def counting(x, y):
        nonlocal calls
        calls += 1
        return residual(x, y)

    monkeypatch.setattr(reps, "_relation_residual", counting)
    assert isinstance(verify_rep(x_zero(4), jordan_block(4)), RepPair)
    assert calls == 1


def test_verify_size_mismatch_message():
    with pytest.raises(SizeMismatchError) as info:
        verify_rep(QMatrix.identity(2), QMatrix.from_rows([[0, 1, 0]]))
    assert str(info.value) == "X and Y must be square of equal size, got 2x2 and 1x3"


def test_rep_pair_construction_rejects_bad_pair():
    with pytest.raises(RelationViolationError):
        RepPair(QMatrix.diagonal([1, 2]), jordan_block(2))


def test_relation_alone_rejects_non_nilpotent_y():
    rng = random.Random(41)
    for n in range(1, 6):
        # L unit lower triangular, U upper triangular with nonzero diagonal:
        # L @ U is invertible, so it has no zero eigenvalue at all.
        lower = QMatrix.from_rows([[1 if i == j else rand_rational(rng) if j < i else 0
                                    for j in range(n)] for i in range(n)])
        upper = QMatrix.from_rows([[rand_nonzero_rational(rng) if i == j
                                    else rand_rational(rng) if j > i else 0
                                    for j in range(n)] for i in range(n)])
        ys = [QMatrix.identity(n), QMatrix.diagonal(range(1, n + 1)), lower @ upper]
        for y in ys:
            x = QMatrix.from_rows([[rand_rational(rng) for _ in range(n)]
                                   for _ in range(n)])
            expected = x @ y - y @ x - y @ y
            result = verify_rep(x, y)
            assert isinstance(result, Violation)
            assert result.residual == expected
            with pytest.raises(RelationViolationError) as info:
                RepPair(x, y)
            assert info.value.residual is not None
            assert info.value.residual == expected


def test_epsilon_small():
    assert epsilon_rep(1).X.is_zero() and epsilon_rep(1).Y.is_zero()
    e2 = epsilon_rep(2)
    assert e2.X.is_zero() and e2.Y == jordan_block(2)


def test_epsilon_verifies_up_to_twenty():
    for n in range(1, 21):
        rep = epsilon_rep(n)
        assert rep.n == n


def test_relation_conjugation_invariant():
    rng = random.Random(20)
    for _ in range(15):
        n = rng.randint(2, 6)
        rep = rand_rep(rng, n)
        c, c_inv = rand_unimodular(rng, n)
        again = conjugate(rep, c, c_inv)
        assert isinstance(again, RepPair)


def test_relation_invariant_under_rational_conjugation():
    from jordanlab import inverse, rank

    rng = random.Random(50)
    for _ in range(10):
        n = rng.randint(2, 5)
        rep = rand_rep(rng, n)
        while True:
            c = QMatrix(n, n, tuple(rand_rational(rng) for _ in range(n * n)))
            if rank(c) == n:
                break
        again = conjugate(rep, c, inverse(c))
        assert isinstance(again, RepPair)


def fraction_product(*mats: QMatrix) -> "list[list[Fraction]]":
    """Oracle: the product of the matrices by Fraction triple loops."""
    acc = [[Fraction(v) for v in mats[0].row(i)] for i in range(mats[0].rows)]
    for m in mats[1:]:
        acc = [[sum((row[t] * m[t, j] for t in range(m.rows)), Fraction(0))
                for j in range(m.cols)] for row in acc]
    return acc


def test_conjugate_matches_fraction_products():
    """conjugate multiplies on integers, each matrix cleared once and each
    entry divided once; its entries equal the Fraction products exactly,
    and the pair it does not re-verify, with c_inv given or omitted (the
    same pair), passes the verifying constructor."""
    from jordanlab import inverse, rank

    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(1, 5)
        rep = rand_rep(rng, n)
        while True:
            c = QMatrix(n, n, tuple(rand_rational(rng) for _ in range(n * n)))
            if rank(c) == n:
                break
        c_inv = inverse(c)
        again = conjugate(rep, c, c_inv)
        assert RepPair(again.X, again.Y) == again
        assert again.X.to_rows() == fraction_product(c, rep.X, c_inv)
        assert again.Y.to_rows() == fraction_product(c, rep.Y, c_inv)
        assert conjugate(rep, c) == again


def test_constructed_pairs_nilpotency_invariants():
    rng = random.Random(21)
    for _ in range(15):
        rep = rand_rep(rng, rng.randint(1, 6))
        assert nilpotency_index(rep.Y) is not None
        roots = rational_roots(char_poly(rep.X))
        if roots is not None:
            s = UniPoly.from_roots([lam for lam, _ in roots])
            assert is_nilpotent(poly_at_matrix(s, rep.X))


def doubled(c: QMatrix) -> QMatrix:
    """[[C, I], [0, C]]: characteristic polynomial char(C)^2, not semisimple."""
    k = c.rows
    ident, zero = QMatrix.identity(k), QMatrix.zeros(k)
    return QMatrix.from_rows([c.row(i) + ident.row(i) for i in range(k)]
                             + [zero.row(i) + c.row(i) for i in range(k)])


def test_squarefree_part_of_char_poly_is_nilpotent_at_every_matrix():
    # RepPair does not check this: char(X) divides S^n and char(X)(X) = 0.
    rng = random.Random(23)
    samples = [QMatrix(n, n, tuple(rand_rational(rng) for _ in range(n * n)))
               for n in range(1, 9) for _ in range(3)]
    # Irrational spectra with repeated roots, where S(X) is nonzero but
    # nilpotent: char = (t^2 - 2)^2 (t - 3)^2 and (t^3 - 2)^2.
    root2 = QMatrix.from_rows([[0, 2], [1, 0]])
    root3 = QMatrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    repeated = [block_diag([doubled(root2), doubled(QMatrix(1, 1, (3,)))]),
                doubled(root3)]
    for x in repeated:
        u, u_inv = rand_unimodular(rng, x.rows)
        samples.append(u @ x @ u_inv)
    irrational = 0
    for x in samples:
        char, splits = sympy_char_poly(x)
        assert char_poly(x) == char
        irrational += not splits
        s_of_x = poly_at_matrix(squarefree_part(char), x)
        assert is_nilpotent(s_of_x)
    assert not s_of_x.is_zero()
    assert irrational >= 20


def test_rand_rep_pinned_output():
    # Pins the seeded draw order of rand_partition, rand_fiber_point and
    # rand_unimodular; any drift changes seeded outputs everywhere.
    rep = rand_rep(random.Random(0), 4)
    f = Fraction
    assert rep.X == QMatrix.from_rows([
        [-35, f(-117, 4), f(31, 4), f(-43, 4)],
        [91, 84, f(-35, 2), f(73, 2)],
        [-24, -12, 8, 0],
        [-116, f(-219, 2), f(43, 2), f(-99, 2)],
    ])
    assert rep.Y == QMatrix.from_rows([
        [-6, -6, 1, -3],
        [12, 12, -2, 6],
        [0, 0, 0, 0],
        [-12, -12, 2, -6],
    ])


# -- fiber --------------------------------------------------------------------------


def test_fiber_full_block_dimension():
    for n in range(1, 7):
        assert len(fiber_basis(Partition((n,))).basis) == n


def test_fiber_two_one():
    assert len(fiber_basis(Partition((2, 1))).basis) == 5


def test_fiber_all_ones():
    for n in range(1, 5):
        assert len(fiber_basis(Partition((1,) * n)).basis) == n * n


def test_fiber_three_way_dimension_agreement():
    from jordanlab import partitions

    for n in range(1, 7):
        for p in partitions(n):
            computed = len(fiber_basis(p).basis)
            assert computed == paper_fiber_dim(p) == min_sum_fiber_dim(p)


def test_fiber_points_satisfy_relation():
    rng = random.Random(22)
    from jordanlab import partitions

    for n in range(1, 6):
        for p in partitions(n):
            y = jordan_matrix(p)
            particular, basis = fiber_basis(p)
            assert particular @ y - y @ particular == y @ y
            x = rand_fiber_point(rng, p)
            assert x @ y - y @ x == y @ y


def test_rand_fiber_point_is_the_fiber_basis_sum():
    """Summing each draw over its support cells gives the point, and leaves
    the generator in the state, that the sum of the dense basis matrices of
    fiber_basis gives: one rand_rational draw per basis element, in order."""
    from jordanlab import partitions

    for n in range(1, 9):
        for p in partitions(n):
            rng, oracle_rng = random.Random(str(p)), random.Random(str(p))
            particular, basis = fiber_basis(p)
            acc = list(particular.entries)
            for b in basis:
                c = rand_rational(oracle_rng)
                acc = [a + c * v for a, v in zip(acc, b.entries)]
            assert rand_fiber_point(rng, p) == QMatrix(n, n, tuple(acc))
            assert rng.getstate() == oracle_rng.getstate()


def test_fiber_basis_is_b_toeplitz():
    from jordanlab import partitions

    for n in range(1, 7):
        for p in partitions(n):
            for b in fiber_basis(p).basis:
                assert is_b_toeplitz(b, p)


def test_fiber_basis_is_sylvester_nullspace():
    # entries and order: the closed form is the canonical kernel basis
    from jordanlab import partitions

    for n in range(1, 11):
        for p in partitions(n):
            y = jordan_matrix(p)
            kernel = nullspace_basis(sylvester_operator(y))
            assert fiber_basis(p).basis == [QMatrix(n, n, v) for v in kernel]


def test_fiber_basis_spans_centralizer():
    # every basis element commutes with Y (homogeneous part of the fiber)
    from jordanlab import partitions

    for n in range(1, 6):
        for p in partitions(n):
            y = jordan_matrix(p)
            for b in fiber_basis(p).basis:
                assert b @ y == y @ b


# -- evaluation ------------------------------------------------------------------------


def test_eval_generator():
    assert evaluate(parse_poly("y"), epsilon_rep(2)) == jordan_block(2)


def test_eval_relation_vanishes():
    rng = random.Random(23)
    rel = parse_poly("x*y - y*x - y^2")
    for _ in range(10):
        rep = rand_rep(rng, rng.randint(1, 6))
        assert evaluate(rel, rep).is_zero()


def test_eval_monomial_single_diagonal():
    # eps_n(y^k x^m) lives on diagonal number k+m and its entries are the
    # values of a degree-m polynomial in the position (checked by finite
    # differences, independent of any closed formula).
    for n in (6, 9):
        rep = epsilon_rep(n)
        for k in range(0, 4):
            for m in range(0, 4):
                if k + m == 0 or k + m >= n:
                    continue
                img = evaluate(NormalPoly.monomial(k, m), rep)
                for i in range(n):
                    for j in range(n):
                        if j - i != k + m:
                            assert img[i, j] == 0
                diag = [img[i, i + k + m] for i in range(n - k - m)]
                if len(diag) > m + 1:
                    for _ in range(m + 1):
                        diag = [b - a for a, b in zip(diag, diag[1:])]
                    assert all(v == 0 for v in diag)  # (m+1)-st difference
                    # and the m-th difference is a nonzero constant
                    diag2 = [img[i, i + k + m] for i in range(n - k - m)]
                    for _ in range(m):
                        diag2 = [b - a for a, b in zip(diag2, diag2[1:])]
                    assert diag2 and all(v == diag2[0] for v in diag2)
                    assert diag2[0] != 0


def test_eval_respects_normal_form():
    rng = random.Random(24)
    rel = parse_poly("x*y - y*x - y^2")
    for _ in range(15):
        n = rng.randint(1, 8)
        rep = epsilon_rep(n)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
            terms[word] = rand_rational(rng)
        from jordanlab import NcPoly, normal_form

        f = NcPoly(terms)
        assert evaluate(normal_form(f), rep) == evaluate(f, rep)
    assert evaluate(rel, epsilon_rep(5)).is_zero()


def word_by_word(f, rep: RepPair) -> QMatrix:
    """Oracle: sum of c * (the product of X's and Y's spelled by the word)."""
    acc = QMatrix.zeros(rep.n)
    for word, c in f.items():
        prod = QMatrix.identity(rep.n)
        for ch in word:
            prod = prod @ (rep.X if ch == "x" else rep.Y)
        acc = acc + prod.scale(c)
    return acc


def test_eval_matches_word_by_word_oracle():
    from jordanlab import NcPoly

    rng = random.Random(46)
    empty = RepPair(QMatrix.zeros(0), QMatrix.zeros(0))
    reps = [empty, epsilon_rep(1), epsilon_rep(5)]
    reps += [rand_rep(rng, rng.randint(1, 6)) for _ in range(20)]
    for rep in reps:
        for _ in range(4):
            f = NcPoly({"".join(rng.choice("xy") for _ in range(rng.randint(0, 6))):
                        rand_rational(rng) for _ in range(rng.randint(1, 4))})
            got = evaluate(f, rep)
            assert got == word_by_word(f, rep)
            assert (got.rows, got.cols) == (rep.n, rep.n)
    for rep in (empty, epsilon_rep(3)):
        with pytest.raises(ValueError):
            evaluate(NcPoly({"z": 1}), rep)
        with pytest.raises(ValueError):
            evaluate(NcPoly({"xzy": 2, "x": 1}), rep)


def test_eval_forms_each_power_of_x_once():
    # Each of the four rows in Y needs X^20000: 14 squarings and 4 more
    # products, formed once and shared, plus one product by Y per power
    # of Y.  One power table per row took 75 products.
    from jordanlab import matrices, reps

    rep = canonical_pair(3, 1, 4)
    f = parse_poly("x^20000 + y*x^20000 + y^2*x^20000 + y^3*x^20000")
    kernel = mock.Mock(wraps=matrices.flat_matmul)
    with mock.patch.object(matrices, "flat_matmul", kernel), \
            mock.patch.object(reps, "flat_matmul", kernel):
        got = evaluate(f, rep)
    assert kernel.call_count <= 21
    power = poly_at_matrix(UniPoly([0] * 20000 + [1]), rep.X)
    want = power
    for _ in range(3):
        want = power + rep.Y @ want
    assert got == want


def test_eval_product_homomorphism():
    rng = random.Random(25)
    from jordanlab import NcPoly, multiply, normal_form

    for _ in range(10):
        n = rng.randint(1, 8)
        rep = epsilon_rep(n)
        f = NcPoly({"".join(rng.choice("xy") for _ in range(rng.randint(0, 3))):
                    rand_rational(rng)})
        g = NcPoly({"".join(rng.choice("xy") for _ in range(rng.randint(0, 3))):
                    rand_rational(rng)})
        lhs = evaluate(multiply(normal_form(f), normal_form(g)), rep)
        assert lhs == evaluate(f, rep) @ evaluate(g, rep)


# -- canonical parameters ------------------------------------------------------------


def test_canonical_zero_is_epsilon():
    for n in range(1, 8):
        assert canonical_pair(0, 0, n) == epsilon_rep(n)


def test_canonical_three_two_four():
    rep = canonical_pair(3, 2, 4)
    assert [rep.X[i, i] for i in range(4)] == [3, 3, 3, 3]
    assert [rep.X[i, i + 1] for i in range(3)] == [2, 1, 0]


def test_extract_round_trip():
    rng = random.Random(26)
    for _ in range(15):
        n = rng.randint(2, 8)
        lam, mu = rand_rational(rng), rand_rational(rng)
        assert extract_params(canonical_pair(lam, mu, n)) == CanonicalParams(lam, mu)
    # n = 1 has no superdiagonal, so mu reads 0 whatever was asked for
    assert extract_params(canonical_pair(Fraction(5, 3), 7, 1)) == CanonicalParams(Fraction(5, 3), 0)


def test_extract_epsilon():
    for n in range(1, 6):
        assert extract_params(epsilon_rep(n)) == CanonicalParams(0, 0)


def test_extract_requires_full_block():
    rep = RepPair(block_diag([x_zero(2), x_zero(1)]), jordan_matrix(Partition((2, 1))))
    with pytest.raises(NotFullBlockJordanCoordinatesError):
        extract_params(rep)


def test_extract_invariant_under_explicit_stabilizer():
    # conjugate P_{3,2} (n = 5) by I + J + 4 J^3
    n = 5
    j = jordan_block(n)
    c = QMatrix.identity(n) + j + (j @ j @ j).scale(4)
    rep = conjugate(canonical_pair(3, 2, n), c)
    assert rep.Y == j  # stabilizer fixes Y
    assert extract_params(rep) == CanonicalParams(3, 2)


def test_extract_constant_on_stabilizer_orbits():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(2, 8)
        lam, mu = rand_rational(rng), rand_rational(rng)
        c = rand_stabilizer_element(rng, n)
        rep = conjugate(canonical_pair(lam, mu, n), c)
        assert extract_params(rep) == CanonicalParams(lam, mu)


def test_rand_stabilizer_element_pinned():
    # Pinned output: the draws, their order and the entries (int where integral).
    rng = random.Random(2024)
    got = [rand_stabilizer_element(rng, n).entries for n in (1, 2, 4, 6)]
    assert got[:2] == [(1,), (1, 3, 0, 1)]
    assert got[2] == polynomial_in_j(4, [1, 3, Fraction(-3, 4), Fraction(-1, 2)]).entries
    assert got[3] == polynomial_in_j(6, [1, 2, 2, 0, 7, Fraction(-3, 4)]).entries
    assert all(type(v) is int or v.denominator > 1 for m in got for v in m)
    assert rng.random() == 0.9246706270354604


# -- full-block canonical decomposition ---------------------------------------------


def rebuilt(lam, p: UniPoly, n: int) -> QMatrix:
    """lam*I + p(J_n) + x_zero(n), the X that full_block_canonicalize describes."""
    return QMatrix.identity(n).scale(lam) + poly_at_matrix(p, jordan_block(n)) + x_zero(n)


def test_canonicalize_constructed():
    n = 5
    j = jordan_block(n)
    x = x_zero(n) + QMatrix.identity(n).scale(3) + j.scale(2)
    lam, p = full_block_canonicalize(RepPair(x, j))
    assert lam == 3
    assert p == UniPoly((0, 2))
    assert x == rebuilt(lam, p, n)


def test_canonicalize_epsilon():
    for n in range(1, 7):
        lam, p = full_block_canonicalize(epsilon_rep(n))
        assert lam == 0 and p.is_zero()
        assert epsilon_rep(n).X == rebuilt(lam, p, n)


def test_canonicalize_quadratic():
    j = jordan_block(4)
    x = x_zero(4) + j @ j
    lam, p = full_block_canonicalize(RepPair(x, j))
    assert lam == 0
    assert p == UniPoly((0, 0, 1))
    assert x == rebuilt(lam, p, 4)


def test_canonicalize_random_fiber_points():
    rng = random.Random(28)
    for _ in range(15):
        n = rng.randint(1, 8)
        p = Partition((n,))
        x = rand_fiber_point(rng, p)
        lam, poly = full_block_canonicalize(RepPair(x, jordan_block(n)))
        assert poly.coeffs[:1] in ((), (0,))
        assert x == rebuilt(lam, poly, n)


# -- eigenvalue read-off ---------------------------------------------------------------


def test_eigenvalues_two_one():
    p = Partition((2, 1))
    x = block_diag([x_zero(2) + QMatrix.identity(2).scale(3),
                    QMatrix.identity(1).scale(5)])
    rep = RepPair(x, jordan_matrix(p))
    assert eigenvalues_distinct_blocks(rep, p, [3, 5]) == [3, 3, 5]


def test_eigenvalues_full_block():
    for n in (1, 3, 5):
        p = Partition((n,))
        lam = Fraction(7, 2)
        x = x_zero(n) + QMatrix.identity(n).scale(lam)
        rep = RepPair(x, jordan_matrix(p))
        assert eigenvalues_distinct_blocks(rep, p, [lam]) == [lam] * n


def test_eigenvalues_distinct_blocks_match_char_poly():
    # oracle for the retired char_poly check: the read-off is the spectrum
    from jordanlab import partitions

    rng = random.Random(31)
    for n in range(1, 9):
        for p in partitions(n):
            if len(set(p.parts)) != len(p.parts):
                continue
            x = rand_fiber_point(rng, p)
            starts = [sum(p.parts[:a]) for a in range(len(p))]
            diag = [x[s, s] for s in starts]
            rep = RepPair(x, jordan_matrix(p))
            roots = rational_roots(char_poly(x))
            expanded = [lam for lam, mult in roots for _ in range(mult)]
            assert eigenvalues_distinct_blocks(rep, p, diag) == expanded


def test_eigenvalues_repeated_sizes_refused():
    p = Partition((2, 2))
    rep = RepPair(block_diag([x_zero(2), x_zero(2)]), jordan_matrix(p))
    with pytest.raises(RepeatedBlockSizesError):
        eigenvalues_distinct_blocks(rep, p, [0, 0])


# -- residual faithfulness ---------------------------------------------------------------


def test_faithful_y():
    assert faithful_witness(parse_poly("y"), 6) == 2


def test_faithful_relation_in_ideal():
    assert faithful_witness(parse_poly("x*y - y*x - y^2"), 6) is WitnessResult.IN_IDEAL


def test_faithful_constant():
    assert faithful_witness(parse_poly("3"), 4) == 1


def test_faithful_not_found_reported():
    # y^3 vanishes on eps_1 .. eps_3, so a cap of 3 reports failure honestly
    assert faithful_witness(parse_poly("y^3"), 3) is WitnessResult.NOT_FOUND_BELOW_MAX
    assert faithful_witness(parse_poly("y^3"), 4) == 4


def test_faithful_random_bound():
    rng = random.Random(29)
    for _ in range(25):
        poly = rand_normal_poly(rng, 6)
        d = poly.degree
        witness = faithful_witness(poly.embed(), max(1, 2 * d))
        assert isinstance(witness, int)
        assert witness <= max(1, 2 * d)


def epsilon_search(f, max_n):
    """The least n <= max_n with eval(f, epsilon_n) != 0 by evaluating f at
    each epsilon_n: the search the read-off in faithful_witness replaced."""
    for n in range(1, max_n + 1):
        if not evaluate(f, epsilon_rep(n)).is_zero():
            return n
    return WitnessResult.NOT_FOUND_BELOW_MAX


def test_faithful_matches_epsilon_search():
    # Random draws, then draws with every monomial of one degree d and small
    # integer coefficients, which give P_d repeated roots (f = x^2 + 2*y*x +
    # 2*y^2 has P_2(i) = i(i-1), least witness 5 = 2*2 + 1).
    rng = random.Random(1209)
    draws = [rand_normal_poly(rng, rng.randint(0, 7)) for _ in range(300)]
    draws += [NormalPoly({(k, d - k): rng.randint(-2, 2) for k in range(d + 1)})
              for d in (rng.randint(1, 5) for _ in range(300))]
    draws.append(NormalPoly({(0, 2): 1, (1, 1): 2, (2, 0): 2}))
    witnesses = set()
    for poly in draws:
        if poly.is_zero():
            continue
        default = max(1, 2 * poly.degree)
        for max_n in (None, 1, 2, 3, 5, 20):
            got = faithful_witness(poly.embed(), max_n)
            assert got == epsilon_search(poly, default if max_n is None else max_n), (poly, max_n)
            witnesses.add(got)
    assert faithful_witness(parse_poly("x^2 + 2*y*x + 2*y^2"), 5) == 5
    assert set(range(1, 9)) <= witnesses


def test_faithful_large_degree_reads_off_the_witness():
    # x^d vanishes at i = 0 of its superdiagonal only; no n x n matrix is built
    assert faithful_witness(parse_poly("x^200")) == 202
    assert faithful_witness(parse_poly("x^2000*y")) == 2003
    assert faithful_witness(parse_poly("y^99999")) == 100000
    assert faithful_witness(parse_poly("x^99999"), 100000) is WitnessResult.NOT_FOUND_BELOW_MAX


def test_faithful_rejects_max_n_below_one():
    for max_n in (0, -1):
        for f in ("x^2", "x*y - y*x - y^2"):
            with pytest.raises(OutOfRangeError):
                faithful_witness(parse_poly(f), max_n)
