"""The radical from the trace form and the quiver per eigen-summand, against
the full-size closures they replaced (tests/radical_oracle.py)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

import pytest

from jordanlab import (
    IrrationalEigenvaluesError,
    QMatrix,
    RepPair,
    block_diag,
    char_poly,
    conjugate,
    decompose,
    epsilon_rep,
    idempotents,
    image_algebra,
    is_nilpotent,
    jordan_block,
    quiver,
    radical_basis,
    rational_spectrum,
    x_zero,
)
from jordanlab import imagealg, polynomials
from jordanlab.sampling import rand_rep, rand_unimodular
from radical_oracle import decompose_by_kernels, quiver_by_closures, radical_by_closure
from spectral_oracle import eigenprojections_by_euclid

LAMBDAS = (-2, Fraction(-1, 2), 0, 1, Fraction(5, 3), 3)


def assembly(rng: random.Random) -> RepPair:
    """A conjugated sum of 1-4 blocks (x_zero(k) + lambda I, J_k), k <= 4;
    lambda is drawn from six values, so blocks may share an eigenvalue."""
    blocks = [(rng.randint(1, 4), rng.choice(LAMBDAS)) for _ in range(rng.randint(1, 4))]
    x = block_diag([x_zero(k) + QMatrix.identity(k).scale(lam) for k, lam in blocks])
    y = block_diag([jordan_block(k) for k, _ in blocks])
    c, c_inv = rand_unimodular(rng, x.rows)
    return conjugate(RepPair(x, y), c, c_inv)


def rational_rand_rep(rng: random.Random) -> RepPair:
    """The first rand_rep with n <= 8 drawn from rng whose X has a rational spectrum."""
    while True:
        rep = rand_rep(rng, rng.randint(1, 8))
        if polynomials.rational_roots(char_poly(rep.X)) is not None:
            return rep


@cache
def differential_reps() -> "list[RepPair]":
    """epsilon_1..10, 120 assemblies and 120 rational-spectrum rand_reps."""
    rng = random.Random(24)
    reps = [epsilon_rep(n) for n in range(1, 11)]
    reps += [assembly(rng) for _ in range(120)]
    return reps + [rational_rand_rep(rng) for _ in range(120)]


def test_outputs_match_the_full_size_closures():
    several = 0
    for rep in differential_reps():
        a = image_algebra(rep)
        spectrum = rational_spectrum(rep.X)
        several += len(spectrum) > 1
        for got, want in ((radical_basis(a), radical_by_closure(a)),
                          (quiver(a), quiver_by_closures(a)),
                          (idempotents(a), eigenprojections_by_euclid(rep.X, spectrum)),
                          (decompose(rep), decompose_by_kernels(rep))):
            assert got == want
            assert repr(got) == repr(want)
    assert len(differential_reps()) >= 250
    assert several >= 100


def test_radical_elements_are_nilpotent_and_trace_orthogonal():
    # Independent of the proof's flag: nilpotency, the r vanishing traces
    # against X^k and the count dim A - r, checked by QMatrix products.
    for rep in differential_reps()[::2]:
        a = image_algebra(rep)
        r = len(rational_spectrum(rep.X))
        rad = radical_basis(a)
        assert len(rad) == a.dim - r
        powers = [QMatrix.identity(rep.n)]
        while len(powers) < r:
            powers.append(powers[-1] @ rep.X)
        for b in rad:
            assert is_nilpotent(b)
            assert all((b @ p).trace() == 0 for p in powers)


def zero_rep() -> RepPair:
    return RepPair(QMatrix.zeros(0), QMatrix.zeros(0))


def test_zero_dimensional_rep():
    a = image_algebra(zero_rep())
    assert radical_basis(a) == []
    assert idempotents(a) == []
    assert quiver(a).vertices == () and quiver(a).arrows == ()
    assert decompose(zero_rep()).summands == ()


def test_one_eigenvalue_needs_no_eigenbasis(monkeypatch):
    # C = I: no (X - lambda)^n, no kernel of it and no inverse is computed.
    calls = []
    for name in ("_power", "inverse"):
        monkeypatch.setattr(imagealg, name, lambda *args, name=name: calls.append(name))
    rng = random.Random(25)
    reps = [epsilon_rep(n) for n in range(1, 9)]
    reps += [conjugate(RepPair(x_zero(k) + QMatrix.identity(k).scale(lam), jordan_block(k)),
                       *rand_unimodular(rng, k))
             for k, lam in ((3, Fraction(7, 2)), (4, -3), (5, 1))]
    for rep in reps:
        ident = QMatrix.identity(rep.n)
        a = image_algebra(rep)
        assert idempotents(a) == [ident]
        result = decompose(rep)
        assert result.summands == (rep,) and result.change_of_basis == ident
        assert quiver(a) == quiver_by_closures(a)
    assert calls == []


def test_distinct_eigenvalues_have_no_loops():
    rng = random.Random(26)
    for n in range(1, 7):
        lams = rng.sample(LAMBDAS, n)
        x = QMatrix.diagonal(lams)
        c, c_inv = rand_unimodular(rng, n)
        q = quiver(image_algebra(conjugate(RepPair(x, QMatrix.zeros(n)), c, c_inv)))
        assert q.vertices == tuple(sorted(lams))
        assert all(all(v == 0 for v in row) for row in q.arrows)


def test_irrational_spectrum_is_refused_everywhere():
    # X = [[0, 2], [1, 0]] has the eigenvalues +-sqrt(2); Y = 0.
    rep = RepPair(QMatrix.from_rows([[0, 2], [1, 0]]), QMatrix.zeros(2))
    a = image_algebra(rep)
    for call in (radical_basis, idempotents, quiver):
        with pytest.raises(IrrationalEigenvaluesError):
            call(a)
    with pytest.raises(IrrationalEigenvaluesError):
        decompose(rep)


def test_closures_stay_small(monkeypatch):
    # radical_basis closes nothing; quiver closes only m_i x m_i summands.
    sizes = []
    right_ideal = imagealg._right_ideal

    def recording(rep, seeds):
        sizes.append(rep.n)
        return right_ideal(rep, seeds)

    monkeypatch.setattr(imagealg, "_right_ideal", recording)
    for rep in differential_reps()[::4]:
        a = image_algebra(rep)
        sizes.clear()
        radical_basis(a)
        assert sizes == []
        spectrum = rational_spectrum(rep.X)
        quiver(a)
        mults = [m for _, m in spectrum]
        assert sizes == ([mults[0]] if len(mults) == 1 else [m for m in mults for _ in (0, 1)])
