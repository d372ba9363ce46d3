"""Image-algebra dimensions, radical, idempotents, quiver and relations."""

from __future__ import annotations

import random
import sys
from collections import deque
from fractions import Fraction
from math import gcd, lcm

import pytest

from jordanlab import (
    IrrationalEigenvaluesError,
    NormalPoly,
    OutOfRangeError,
    QMatrix,
    RepPair,
    SpanBuilder,
    UniPoly,
    block_diag,
    char_poly,
    conjugate,
    decompose,
    dim_bound,
    discover_relations,
    epsilon_rep,
    evaluate,
    ideal_codim,
    idempotents,
    image_algebra,
    jordan_block,
    nilpotency_index,
    normal_form,
    parse_poly,
    quiver,
    radical_basis,
    rational_spectrum,
    relation_coefficient_vector,
    x_zero,
)
from jordanlab import imagealg, polynomials
from jordanlab.imagealg import _right_ideal
from jordanlab.matrices import int_normalized
from jordanlab.scalars import primitive_integral
from jordanlab.sampling import rand_rep, rand_unimodular
from closure_oracle import right_ideal_from_products
from ideal_oracle import ideal_codim_by_products
from spectral_oracle import eigenprojections_by_euclid

WILD_GENS = ["y^2", "x^2*y", "x^3", "x*y - y*x"]
ONE_SIDED_GENS = ["x"]  # on epsilon_n (n >= 3) AxA is larger than xA


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


# Block sizes of the structure benchmark's conjugated assemblies.
STRUCTURE_SIZES = ((1, 2), (2, 2), (3, 1), (2, 1, 1), (3, 2), (2, 2, 1), (4, 1), (3, 3),
                   (4, 2), (2, 2, 2), (4, 3), (3, 2, 2), (3, 3, 2), (4, 4))
RATIONALS = sorted({Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3)})


def repeated_block_assembly(rng: random.Random) -> RepPair:
    """Conjugated sum of (x_zero(k) + lambda I, J_k) blocks, n <= 8, with 2-4
    distinct rational lambda; one lambda carries two blocks of one size and
    each other lambda one or two blocks."""
    while True:
        k = rng.randint(1, 2)
        sizes = [[k, k]] + [[rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
                            for _ in range(rng.randint(1, 3))]
        if sum(map(sum, sizes)) <= 8:
            break
    lams = rng.sample(RATIONALS, len(sizes))
    blocks = [(x_zero(k) + QMatrix.identity(k).scale(lam), jordan_block(k))
              for ks, lam in zip(sizes, lams) for k in ks]
    assembled = RepPair(block_diag([x for x, _ in blocks]), block_diag([y for _, y in blocks]))
    c, c_inv = rand_unimodular(rng, assembled.n)
    return conjugate(assembled, c, c_inv)


def spectral_reps() -> "list[RepPair]":
    """epsilon_1..10, the structure benchmark's assemblies and 120 seeded
    assemblies with repeated block sizes per eigenvalue."""
    rng = random.Random(46)
    reps = [epsilon_rep(n) for n in range(1, 11)]
    reps += [sized_assembly(rng, sizes) for sizes in STRUCTURE_SIZES]
    return reps + [repeated_block_assembly(rng) for _ in range(120)]


def test_eigenprojections_match_the_extended_euclid_oracle(monkeypatch):
    # The projections along the generalized eigenspaces are unique, so the
    # split C P_i C^-1 and the polynomials u*q_i mod char agree exactly in
    # ``idempotents``.  ``quiver`` forms no e_i: it closes the summands of
    # ``decompose``.
    seen, summands = [], []
    split, summands_of = imagealg._eigenprojections, imagealg._summands

    def recording(x, spectrum):
        seen.append(split(x, spectrum))
        return seen[-1]

    def recording_summands(rep, spectrum):
        result = summands_of(rep, spectrum)
        summands.append(result[1])
        return result

    monkeypatch.setattr(imagealg, "_eigenprojections", recording)
    monkeypatch.setattr(imagealg, "_summands", recording_summands)
    several = 0
    for rep in spectral_reps():
        want = eigenprojections_by_euclid(rep.X, rational_spectrum(rep.X))
        a = image_algebra(rep)
        seen.clear()
        summands.clear()
        assert idempotents(a) == want
        quiver(a)
        assert seen == [want]
        assert summands == [list(decompose(rep).summands)]
        several += len(want) > 1
    assert several == len(STRUCTURE_SIZES) + 120


def test_eigenprojections_equal_the_pairwise_products():
    # The block product C[:, block i] C^-1[block i, :] is C @ P_i @ C^-1.
    for rep in spectral_reps()[::3]:
        spectrum = rational_spectrum(rep.X)
        c, c_inv = imagealg._eigenbasis(rep.X, spectrum)
        block = [i for i, (_, mult) in enumerate(spectrum) for _ in range(mult)]
        want = [c @ QMatrix.diagonal(int(b == i) for b in block) @ c_inv
                for i in range(len(spectrum))]
        assert imagealg._eigenprojections(rep.X, spectrum) == want


def test_the_spectral_split_calls_no_extended_euclid(monkeypatch):
    calls = []
    euclid = polynomials.poly_ext_gcd

    def counting(*args):
        calls.append(args)
        return euclid(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("jordanlab") and getattr(module, "poly_ext_gcd", None) is euclid:
            monkeypatch.setattr(module, "poly_ext_gcd", counting)
    rng = random.Random(48)
    for rep in (epsilon_rep(4), sized_assembly(rng, (2, 1)), repeated_block_assembly(rng)):
        a = image_algebra(rep)
        idempotents(a)
        quiver(a)
        decompose(rep)
    assert calls == []
    polynomials.poly_gcd(UniPoly.from_roots([1, 2]), UniPoly.from_roots([2]))
    assert len(calls) == 1  # the counter is live


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


def reference_arrows(a) -> "list[list[int]]":
    """Oracle: dim e_i (J/J^2) e_j as rank(J^2 + e_i J e_j) - rank(J^2), over
    the Fraction radical basis and the idempotents, for every pair i, j.

    It assumes nothing about which e_i J e_j vanish."""
    n = a.rep.n
    rad = radical_basis(a)
    es = idempotents(a)
    rad_sq = SpanBuilder(n * n)
    for b1 in rad:
        for b2 in rad:
            rad_sq.add((b1 @ b2).entries)
    arrows = []
    for ei in es:
        row = []
        for ej in es:
            span = SpanBuilder(n * n, list(rad_sq.rows), list(rad_sq.pivots))
            for b in rad:
                span.add((ei @ b @ ej).entries)
            row.append(span.rank - rad_sq.rank)
        arrows.append(row)
    return arrows


def block_assembly(rng: random.Random) -> RepPair:
    """2-3 blocks x_zero(k) + lambda I, Y = J_k, distinct lambda, conjugated."""
    count = rng.randint(2, 3)
    sizes = [rng.randint(1, 3) for _ in range(count)]
    lams = rng.sample(range(-6, 7), count)
    blocks = [RepPair(x_zero(k) + QMatrix.identity(k).scale(lam), jordan_block(k))
              for k, lam in zip(sizes, lams)]
    assembled = RepPair(block_diag([b.X for b in blocks]), block_diag([b.Y for b in blocks]))
    c, c_inv = rand_unimodular(rng, assembled.n)
    return conjugate(assembled, c, c_inv)


def test_quiver_matches_reference_and_idempotents_are_central():
    rng = random.Random(38)
    reps = [block_assembly(rng) for _ in range(20)]
    while len(reps) < 100:
        rep = rand_rep(rng, rng.randint(1, 5))
        try:
            idempotents(image_algebra(rep))
        except IrrationalEigenvaluesError:
            continue
        reps.append(rep)
    several = 0
    for rep in reps:
        a = image_algebra(rep)
        q = quiver(a)
        assert [list(row) for row in q.arrows] == reference_arrows(a)
        es = idempotents(a)
        several += len(es) > 1
        for e in es:
            assert e @ rep.X == rep.X @ e
            assert e @ rep.Y == rep.Y @ e
    assert several >= 20


# -- the integer-vector closure against the QMatrix worklist ----------------------


def _primitive(values) -> "list[int]":
    """Oracle helper: the positive multiple of a rational vector with coprime
    integer entries, by Fraction arithmetic."""
    vec = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g else ints


class ReferenceSpan:
    """Oracle span, written apart from SpanBuilder: {pivot: row}, each row a
    primitive integer vector, positive at its pivot and 0 at the others."""

    def __init__(self):
        self.by_pivot = {}

    def add(self, values) -> bool:
        vec = _primitive(values)
        for p, row in self.by_pivot.items():
            if vec[p]:
                vec = _primitive([row[p] * a - vec[p] * b for a, b in zip(vec, row)])
        if not any(vec):
            return False
        p = next(j for j, v in enumerate(vec) if v)
        if vec[p] < 0:
            vec = [-v for v in vec]
        for q, row in self.by_pivot.items():
            if row[p]:
                self.by_pivot[q] = _primitive([vec[p] * a - row[p] * b for a, b in zip(row, vec)])
        self.by_pivot[p] = vec
        return True

    @property
    def rank(self) -> int:
        return len(self.by_pivot)

    def rows(self) -> "tuple[tuple, tuple]":
        pivots = tuple(sorted(self.by_pivot))
        return tuple(tuple(self.by_pivot[p]) for p in pivots), pivots

    def rref(self) -> "list[tuple]":
        return [tuple(Fraction(v, row[p]) for v in row) for row, p in zip(*self.rows())]


def reference_closure(n: int, seeds, products=lambda m: ()) -> ReferenceSpan:
    """The QMatrix worklist: every candidate is a QMatrix scaled by
    int_normalized, and its products are QMatrix products."""
    span = ReferenceSpan()
    pending = deque([seeds])
    while pending:
        for m in pending.popleft():
            m = int_normalized(m)
            if span.add(m.entries):
                pending.append(products(m))
    return span


def reference_image(rep: RepPair) -> ReferenceSpan:
    x, y = int_normalized(rep.X), int_normalized(rep.Y)
    return reference_closure(rep.n, [QMatrix.identity(rep.n)], lambda m: (m @ x, m @ y))


def reference_ideal(rep: RepPair, seeds) -> ReferenceSpan:
    x, y = int_normalized(rep.X), int_normalized(rep.Y)
    return reference_closure(rep.n, seeds, lambda m: (x @ m, m @ x, y @ m, m @ y))


def squarefree_at_x(rep: RepPair) -> QMatrix:
    """Oracle: S(X), the product of X - lambda*I over the distinct eigenvalues."""
    s_of_x = QMatrix.identity(rep.n)
    for lam, _ in rational_spectrum(rep.X):
        s_of_x = s_of_x @ (rep.X - QMatrix.identity(rep.n).scale(lam))
    return s_of_x


def check_against_reference(rep: RepPair, gens) -> None:
    """image_algebra rows/pivots, radical_basis, quiver and ideal_codim agree
    with the QMatrix worklist over the oracle span.  ideal_codim is checked
    for gens and for ONE_SIDED_GENS, whose ideal is not the right ideal gA."""
    n = rep.n
    a = image_algebra(rep)
    ref = reference_image(rep)
    assert (a.rows, a.pivots) == ref.rows()
    for some_gens in (gens, ONE_SIDED_GENS):
        images = [evaluate(parse_poly(g), rep) for g in some_gens]
        assert (ideal_codim(a, [parse_poly(g) for g in some_gens])
                == ref.rank - reference_ideal(rep, images).rank)
    try:
        got_radical = radical_basis(a)
    except IrrationalEigenvaluesError:
        return
    radical = reference_ideal(rep, [squarefree_at_x(rep), rep.Y])
    assert [b.entries for b in got_radical] == radical.rref()
    rad = [QMatrix(n, n, row) for row in radical.rows()[0]]
    loops = []
    for e in idempotents(a):
        je = reference_closure(n, [b @ e for b in rad])
        j2e = reference_closure(n, [b @ QMatrix(n, n, c) for c in je.rows()[0] for b in rad])
        loops.append(je.rank - j2e.rank)
    assert [q[i] for i, q in enumerate(quiver(a).arrows)] == loops


def sized_assembly(rng: random.Random, sizes) -> RepPair:
    """Blocks x_zero(k) + lambda I, Y = J_k, of the given sizes with distinct
    lambda, conjugated by a unimodular matrix."""
    lams = rng.sample(range(-6, 7), len(sizes))
    blocks = [RepPair(x_zero(k) + QMatrix.identity(k).scale(lam), jordan_block(k))
              for k, lam in zip(sizes, lams)]
    assembled = RepPair(block_diag([b.X for b in blocks]), block_diag([b.Y for b in blocks]))
    c, c_inv = rand_unimodular(rng, assembled.n)
    return conjugate(assembled, c, c_inv)


def closure_reps() -> "list[RepPair]":
    """epsilon_1..10, 40 seeded rand_reps and five conjugated assemblies."""
    rng = random.Random(45)
    reps = [epsilon_rep(n) for n in range(1, 11)]
    reps += [rand_rep(rng, rng.randint(1, 6)) for _ in range(40)]
    reps += [sized_assembly(rng, sizes) for sizes in ((1, 2), (2, 1, 1), (4, 3), (3, 3, 2), (4, 4))]
    return reps


def test_integer_closure_matches_qmatrix_worklist():
    for rep in closure_reps():
        check_against_reference(rep, WILD_GENS)


def echelon(span: SpanBuilder) -> "tuple[tuple, tuple]":
    return tuple(map(tuple, span.rows)), tuple(span.pivots)


def test_right_ideals_of_y_and_the_radical_generators_are_two_sided():
    # AY = YA and J = YA + S(X)A: the right ideals equal the two-sided oracle.
    radicals = 0
    for rep in closure_reps():
        y = primitive_integral(rep.Y.entries)
        assert echelon(_right_ideal(rep, [y])) == reference_ideal(rep, [rep.Y]).rows()
        try:
            s_of_x = squarefree_at_x(rep)
        except IrrationalEigenvaluesError:
            continue
        radicals += 1
        right = _right_ideal(rep, [primitive_integral(s_of_x.entries), y])
        assert echelon(right) == reference_ideal(rep, [s_of_x, rep.Y]).rows()
    assert radicals >= 20


def seed_mix(rng: random.Random, rep: RepPair) -> "list[QMatrix]":
    """1-5 seeds: foreign integer matrices, zeros, words in X and Y, and
    matrices that Y kills (m*Y^(nu-1), so m*Y^nu = 0)."""
    n = rep.n
    y_top = QMatrix.identity(n)
    for _ in range(nilpotency_index(rep.Y) - 1):
        y_top = y_top @ rep.Y
    seeds = []
    for _ in range(rng.randint(1, 5)):
        foreign = QMatrix(n, n, tuple(rng.randint(-3, 3) for _ in range(n * n)))
        kind = rng.randrange(4)
        if kind == 0:
            seeds.append(foreign)
        elif kind == 1:
            seeds.append(QMatrix.zeros(n))
        elif kind == 2:
            word = QMatrix.identity(n)
            for ch in rng.choices("xy", k=rng.randint(0, 4)):
                word = word @ (rep.X if ch == "x" else rep.Y)
            seeds.append(word)
        else:
            seeds.append(foreign @ y_top)
    return seeds


def test_right_ideal_matches_worklist_on_foreign_and_multiple_seeds():
    # 200 cases; every 25th has n = 8 or 9, where the oracle is slow.
    rng = random.Random(46)
    for case in range(200):
        rep = rand_rep(rng, 8 + case // 25 % 2 if case % 25 == 0 else rng.randint(1, 7))
        seeds = seed_mix(rng, rep)
        x, y = int_normalized(rep.X), int_normalized(rep.Y)
        got = _right_ideal(rep, [primitive_integral(m.entries) for m in seeds])
        assert echelon(got) == reference_closure(rep.n, seeds, lambda m: (m @ x, m @ y)).rows()


def test_image_algebra_adds_dim_plus_nilpotency_index(monkeypatch):
    # Each Y-level of the identity seed ends at its one rejected candidate.
    calls = 0
    add = SpanBuilder.add

    def counting_add(span, vec):
        nonlocal calls
        calls += 1
        return add(span, vec)

    monkeypatch.setattr(SpanBuilder, "add", counting_add)
    for rep in closure_reps() + [epsilon_rep(n) for n in (11, 12)]:
        calls = 0
        a = image_algebra(rep)
        assert calls == a.dim + nilpotency_index(rep.Y)


def rational_rand_rep(rng: random.Random, n: int) -> RepPair:
    """The first rand_rep of size n drawn from rng whose X has a rational spectrum."""
    while True:
        rep = rand_rep(rng, n)
        if polynomials.rational_roots(char_poly(rep.X)) is not None:
            return rep


def test_chains_from_stored_rows_match_raw_product_chains(monkeypatch):
    # Step (ii') of ``_right_ideal``: the same accept/reject sequence and
    # the same span as the closure that multiplies the raw candidates.
    rng = random.Random(20)
    reps = [rational_rand_rep(rng, n) for n in (9, 10, 11, 12)]
    reps += [epsilon_rep(n) for n in range(1, 15)]
    gens = [parse_poly(g) for g in WILD_GENS]
    add = SpanBuilder.add
    accepted = []

    def recording_add(span, vec):
        row = add(span, vec)
        accepted.append(bool(row))
        return row

    monkeypatch.setattr(SpanBuilder, "add", recording_add)
    for rep in reps:
        results = []
        for closure in (_right_ideal, right_ideal_from_products):
            monkeypatch.setattr(imagealg, "_right_ideal", closure)
            accepted.clear()
            a = image_algebra(rep)
            results.append((a.rows, a.pivots, radical_basis(a), quiver(a),
                            ideal_codim(a, gens), tuple(accepted)))
        assert results[0] == results[1]


def test_one_sided_generator_ideal_is_not_its_right_ideal():
    # x on epsilon_n: the two-sided ideal has codimension 2, xA has codimension n.
    x = parse_poly("x")
    for n in range(3, 8):
        rep = epsilon_rep(n)
        a = image_algebra(rep)
        assert ideal_codim(a, [x]) == 2
        assert a.dim - _right_ideal(rep, [primitive_integral(rep.X.entries)]).rank == n


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


CODIM_GEN_SETS = (WILD_GENS, ["x"], ["y"], ["x^2 - x*y", "y^2*x + 2*y"])
CODIM_GEN_POOL = ("x", "y", "x^2", "x*y", "y*x - x^2", "x^2*y + y", "x - 1", "x^3 - x", "1")


def test_ideal_codim_matches_the_product_seeded_oracle():
    # the transposed closure against the right ideal of every b*g
    for n in range(1, 9):
        a = image_algebra(epsilon_rep(n))
        for gens in CODIM_GEN_SETS:
            gens = [parse_poly(g) for g in gens]
            assert ideal_codim(a, gens) == ideal_codim_by_products(a, gens)
    rng = random.Random(47)
    for _ in range(120):
        a = image_algebra(rand_rep(rng, rng.randint(1, 7)))
        gens = [parse_poly(rng.choice(CODIM_GEN_POOL)) for _ in range(rng.randint(1, 3))]
        assert ideal_codim(a, gens) == ideal_codim_by_products(a, gens)


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


def test_relation_columns_match_per_monomial_evaluate(monkeypatch):
    # Each column is one product from an earlier column; the oracle
    # evaluates every monomial y^k x^m on its own.
    seen = []
    kernel = imagealg.nullspace_basis

    def recording(m):
        seen.append(m)
        return kernel(m)

    monkeypatch.setattr(imagealg, "nullspace_basis", recording)
    rng = random.Random(49)
    reps = [rand_rep(rng, rng.randint(1, 6)) for _ in range(12)] + [epsilon_rep(4)]
    for rep in reps:
        max_degree = rng.randint(0, 7)
        seen.clear()
        discover_relations(rep, max_degree)
        monomials = [(k, d - k) for d in range(max_degree + 1) for k in range(d + 1)]
        columns = [evaluate(NormalPoly.monomial(k, m), rep).entries for k, m in monomials]
        n2 = rep.n * rep.n
        assert seen == [QMatrix(n2, len(monomials), tuple(
            columns[c][r] for r in range(n2) for c in range(len(monomials))))]


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


def test_relations_reject_negative_degree():
    with pytest.raises(OutOfRangeError):
        discover_relations(epsilon_rep(2), -1)
    with pytest.raises(OutOfRangeError):
        relation_coefficient_vector(NormalPoly.zero(), -1)


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
