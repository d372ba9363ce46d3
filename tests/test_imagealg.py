"""Image-algebra dimensions, radical, idempotents, quiver and relations."""

from __future__ import annotations

import random

import pytest

from jordanlab import (
    IrrationalEigenvaluesError,
    NormalPoly,
    QMatrix,
    RepPair,
    SpanBuilder,
    conjugate,
    dim_bound,
    discover_relations,
    epsilon_rep,
    evaluate,
    ideal_codim,
    idempotents,
    image_algebra,
    nilpotency_index,
    normal_form,
    parse_poly,
    quiver,
    radical_basis,
    relation_coefficient_vector,
)
from jordanlab.sampling import rand_rep, rand_unimodular

WILD_GENS = ["y^2", "x^2*y", "x^3", "x*y - y*x"]


def one_dim_rep(lam) -> RepPair:
    return RepPair(QMatrix(1, 1, (lam,)), QMatrix.zeros(1))


def brute_force_ideal_dim(rep: RepPair, gens, word_len: int) -> int:
    """Oracle: span of w1 * g * w2 over all words up to the given length."""
    words = [""]
    frontier = [""]
    for _ in range(word_len):
        frontier = [w + ch for w in frontier for ch in "xy"]
        words.extend(frontier)
    mats = {}
    ident = QMatrix.identity(rep.n)
    for w in words:
        m = ident
        for ch in w:
            m = m @ (rep.X if ch == "x" else rep.Y)
        mats[w] = m
    span = SpanBuilder(rep.n * rep.n)
    images = [evaluate(parse_poly(g), rep) for g in gens]
    for w1 in words:
        for g in images:
            left = mats[w1] @ g
            for w2 in words:
                span.add((left @ mats[w2]).entries)
    return span.rank


# -- dimensions ---------------------------------------------------------------


def test_image_dims_small():
    assert image_algebra(epsilon_rep(3)).dim == 4
    assert image_algebra(epsilon_rep(4)).dim == 6
    assert image_algebra(epsilon_rep(5)).dim == 9


def test_image_dim_one_dimensional():
    assert image_algebra(one_dim_rep(7)).dim == 1


def test_image_contains_identity_and_closed():
    a = image_algebra(epsilon_rep(4))
    assert a.closure_certified
    span = SpanBuilder(16)
    for b in a.basis:
        span.add(b.entries)
    assert span.contains(QMatrix.identity(4).entries)
    for b in a.basis:
        assert span.contains((b @ a.rep.X).entries)
        assert span.contains((b @ a.rep.Y).entries)


def sympy_image_rref(rep: RepPair) -> "list[tuple]":
    """Oracle: sympy's reduced row-echelon rows of the image algebra.

    V starts as span{I}; each round stacks the vectors of b, b X and b Y for
    the current rows b and takes sympy.Matrix.rref.  Once a round adds
    nothing, V is closed under right multiplication by X and Y and contains
    I, so it is the span of all words.
    """
    sympy = pytest.importorskip("sympy")

    def to_sympy(m: QMatrix):
        return sympy.Matrix(m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator)
                                             for v in m.entries])

    n = rep.n
    x, y = to_sympy(rep.X), to_sympy(rep.Y)
    rows = [sympy.eye(n)]
    while True:
        stacked = sympy.Matrix([list(m) for b in rows for m in (b, b * x, b * y)])
        rref, pivots = stacked.rref()
        if len(pivots) == len(rows):
            return [tuple(rref.row(i)) for i in range(len(pivots))]
        rows = [rref.row(i).reshape(n, n) for i in range(len(pivots))]


def test_image_basis_is_lazy_canonical_and_hashable():
    rng = random.Random(37)
    reps = [epsilon_rep(n) for n in range(1, 9)]
    reps += [rand_rep(rng, 1 + i % 8) for i in range(20)]
    for rep in reps:
        a = image_algebra(rep)
        assert "basis" not in vars(a)  # .dim does not build the basis
        assert a.dim == len(a.basis)
        assert [tuple(b.entries) for b in a.basis] == sympy_image_rref(rep)
        assert a.basis is a.basis
        again = image_algebra(rep)
        assert again == a and hash(again) == hash(a)
        assert a.closure_certified


def test_dim_bound_values():
    assert dim_bound(6) == 12
    assert dim_bound(7) == 16
    assert dim_bound(1) == 1


def test_image_dim_conjugation_invariant():
    rng = random.Random(30)
    for _ in range(10):
        n = rng.randint(2, 6)
        rep = rand_rep(rng, n)
        a = image_algebra(rep)
        c, c_inv = rand_unimodular(rng, n)
        b = image_algebra(conjugate(rep, c, c_inv))
        assert a.dim == b.dim


# -- radical -------------------------------------------------------------------


def test_radical_epsilon_three():
    assert len(radical_basis(image_algebra(epsilon_rep(3)))) == 3


def test_radical_one_dimensional_rep():
    assert radical_basis(image_algebra(one_dim_rep(5))) == []


def test_radical_semisimple():
    rep = RepPair(QMatrix.diagonal([1, 2]), QMatrix.zeros(2))
    assert radical_basis(image_algebra(rep)) == []


def test_radical_elements_nilpotent():
    rng = random.Random(31)
    for _ in range(10):
        rep = rand_rep(rng, rng.randint(1, 5))
        a = image_algebra(rep)
        try:
            rad = radical_basis(a)
        except IrrationalEigenvaluesError:
            continue
        for b in rad:
            idx = nilpotency_index(b)
            assert idx is not None and idx <= rep.n


def test_radical_dimension_formula():
    rng = random.Random(32)
    from jordanlab import char_poly, rational_roots

    for _ in range(10):
        rep = rand_rep(rng, rng.randint(1, 5))
        a = image_algebra(rep)
        roots = rational_roots(char_poly(rep.X))
        if roots is None:
            with pytest.raises(IrrationalEigenvaluesError):
                radical_basis(a)
            continue
        assert a.dim == len(radical_basis(a)) + len(roots)


def test_radical_irrational_spectrum_refused():
    rep = RepPair(QMatrix.from_rows([[0, 1], [2, 0]]), QMatrix.zeros(2))
    with pytest.raises(IrrationalEigenvaluesError):
        radical_basis(image_algebra(rep))


# -- idempotents ----------------------------------------------------------------


def test_idempotents_two_point_spectrum():
    rep = RepPair(QMatrix.diagonal([1, 2]), QMatrix.zeros(2))
    es = idempotents(image_algebra(rep))
    assert es == [QMatrix.diagonal([1, 0]), QMatrix.diagonal([0, 1])]


def test_idempotents_single_eigenvalue():
    assert idempotents(image_algebra(epsilon_rep(4))) == [QMatrix.identity(4)]


def test_idempotents_contract_random():
    rng = random.Random(33)
    checked = 0
    while checked < 25:
        rep = rand_rep(rng, rng.randint(1, 6))
        a = image_algebra(rep)
        try:
            es = idempotents(a)
        except IrrationalEigenvaluesError:
            continue
        checked += 1
        total = QMatrix.zeros(rep.n)
        for i, e in enumerate(es):
            assert e @ e == e
            total = total + e
            for j, f in enumerate(es):
                if i != j:
                    assert (e @ f).is_zero()
        assert total == QMatrix.identity(rep.n)


# -- quiver --------------------------------------------------------------------


def test_quiver_full_block_two_loops():
    for n in (3, 4, 5, 6):
        q = quiver(image_algebra(epsilon_rep(n)))
        assert q.vertices == (0,)
        assert q.loop_count() == 2


def test_quiver_one_dimensional():
    q = quiver(image_algebra(one_dim_rep(4)))
    assert q.vertices == (4,)
    assert q.loop_count() == 0


def test_quiver_epsilon_two_single_loop():
    q = quiver(image_algebra(epsilon_rep(2)))
    assert q.vertices == (0,)
    assert q.loop_count() == 1


def test_quiver_conjugation_invariant():
    rng = random.Random(34)
    checked = 0
    while checked < 8:
        n = rng.randint(2, 6)
        rep = rand_rep(rng, n)
        try:
            q1 = quiver(image_algebra(rep))
        except IrrationalEigenvaluesError:
            continue
        checked += 1
        c, c_inv = rand_unimodular(rng, n)
        q2 = quiver(image_algebra(conjugate(rep, c, c_inv)))
        assert q1.vertices == q2.vertices
        assert q1.arrows == q2.arrows


def test_quiver_json():
    q = quiver(image_algebra(epsilon_rep(3)))
    assert q.to_json() == {"vertices": ["0"], "arrows": [[2]]}


# -- ideal codimension ------------------------------------------------------------


def test_wild_quotient_codim_five():
    gens = [parse_poly(g) for g in WILD_GENS]
    assert ideal_codim(image_algebra(epsilon_rep(5)), gens) == 5
    assert ideal_codim(image_algebra(epsilon_rep(6)), gens) == 5


def test_ideal_codim_epsilon_three_against_brute_force():
    rep = epsilon_rep(3)
    a = image_algebra(rep)
    gens = [parse_poly(g) for g in WILD_GENS]
    expected = a.dim - brute_force_ideal_dim(rep, WILD_GENS, 4)
    assert expected == 3  # frozen from the oracle
    assert ideal_codim(a, gens) == expected


def test_ideal_codim_whole_algebra():
    a = image_algebra(epsilon_rep(4))
    assert ideal_codim(a, [parse_poly("1")]) == 0


# -- relation discovery -------------------------------------------------------------


def relations_span(rep, max_degree):
    rels = discover_relations(rep, max_degree)
    span = SpanBuilder(len(relation_coefficient_vector(NormalPoly.zero(), max_degree)))
    for r in rels:
        span.add(relation_coefficient_vector(r, max_degree))
    return rels, span


def test_relations_epsilon_four():
    rels, span = relations_span(epsilon_rep(4), 3)
    # the image algebra satisfies x^2 = -2xy and x^3 = 0
    candidate = normal_form(parse_poly("x^2 + 2*x*y"))
    assert span.contains(relation_coefficient_vector(candidate, 3))
    assert span.contains(relation_coefficient_vector(normal_form(parse_poly("x^3")), 3))
    # while x^2 - 2xy is NOT a relation (the sign is meaningful)
    wrong = normal_form(parse_poly("x^2 - 2*x*y"))
    assert not span.contains(relation_coefficient_vector(wrong, 3))


def test_relations_evaluate_to_zero():
    for n in (2, 3, 4):
        rep = epsilon_rep(n)
        for r in discover_relations(rep, 3):
            assert evaluate(r, rep).is_zero()


def test_relations_epsilon_one():
    rels = discover_relations(epsilon_rep(1), 1)
    assert [str(r) for r in rels] == ["x", "y"]


def test_relations_degree_zero_empty():
    rng = random.Random(35)
    for _ in range(5):
        rep = rand_rep(rng, rng.randint(1, 4))
        assert discover_relations(rep, 0) == []


def test_relations_never_contain_defining_relation():
    # inputs are normal forms already, so xy - yx - y^2 cannot appear
    for n in (2, 3, 4, 5):
        for r in discover_relations(epsilon_rep(n), 3):
            support = set(r.support())
            assert all(k >= 0 and m >= 0 for k, m in support)


def test_relation_count_matches_dimension():
    # #monomials of degree <= D  =  dim A + #relations  when D is large
    for n in (2, 3, 4):
        rep = epsilon_rep(n)
        a = image_algebra(rep)
        max_degree = 2 * n
        monomial_count = (max_degree + 1) * (max_degree + 2) // 2
        rels = discover_relations(rep, max_degree)
        assert monomial_count - len(rels) == a.dim


# -- bound property ------------------------------------------------------------------


def test_random_reps_respect_dim_bound():
    rng = random.Random(36)
    for _ in range(30):
        n = rng.randint(1, 6)
        rep = rand_rep(rng, n)
        assert image_algebra(rep).dim <= dim_bound(n)
