"""The pairs built by ``RepPair._proved``, each checked by the verifying
``RepPair(X, Y)`` and against an independent construction.

``RepPair._proved`` skips the relation check at the call sites whose
docstrings prove the relation (tests/test_api.py pins that list).  Here
every site's pairs must pass the check they skip, and equal what the
Fraction products of the unoptimized path give.  ``conjugate`` itself is
checked so in tests/test_reps.py::test_conjugate_matches_fraction_products.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from jordanlab import (
    Partition,
    QMatrix,
    RepPair,
    SizeMismatchError,
    block_diag,
    char_poly,
    conjugate,
    decompose,
    fiber_basis,
    ideal_codim,
    image_algebra,
    inverse,
    jordan_matrix,
    parse_poly,
    partitions,
    rational_roots,
    x_zero,
)
from jordanlab import imagealg
from jordanlab.cli import rep_to_json, run
from jordanlab.matrices import parse_matrix
from jordanlab.sampling import _unit_lower_inverse, rand_rep, rand_unimodular


def fraction_product(*mats: QMatrix) -> QMatrix:
    """The product of the matrices by Fraction triple loops."""
    acc = [[Fraction(v) for v in mats[0].row(i)] for i in range(mats[0].rows)]
    for m in mats[1:]:
        acc = [[sum((row[t] * m[t, j] for t in range(m.rows)), Fraction(0))
                for j in range(m.cols)] for row in acc]
    return QMatrix.from_rows(acc)


def fiber_point_by_fractions(rng: random.Random, p: Partition) -> QMatrix:
    """particular + sum of c_i * basis_i over the basis matrices of
    ``fiber_basis(p)``, one Fraction draw per element in basis order: the
    draws of ``sampling.rand_fiber_point``."""
    fb = fiber_basis(p)
    x = fb.particular
    for b in fb.basis:
        x = x + b.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return x


def rand_rep_by_fractions(rng: random.Random, n: int) -> "tuple[QMatrix, QMatrix]":
    """The (X, Y) of ``sampling.rand_rep`` from the same draws, by QMatrix
    and Fraction products, with no check skipped or kernel shared."""
    p = rng.choice(partitions(n))
    x = fiber_point_by_fractions(rng, p)
    y = jordan_matrix(p)
    assert RepPair(x, y)
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
             for i in range(n)]
    c = QMatrix.from_rows(lower) @ QMatrix.from_rows(upper)
    c_inv = inverse(c)
    return fraction_product(c, x, c_inv), fraction_product(c, y, c_inv)


def test_rand_rep_pairs_verify_and_match_the_fraction_path():
    draws = 0
    for n in range(1, 11):
        for seed in range(30):
            rep = rand_rep(random.Random(f"{n}/{seed}"), n)
            assert RepPair(rep.X, rep.Y) == rep
            assert (rep.X, rep.Y) == rand_rep_by_fractions(random.Random(f"{n}/{seed}"), n)
            draws += 1
    assert draws >= 300


def test_rand_unimodular_inverse_is_the_elimination_inverse():
    # c_inv = U^-1 L^-1 is formed by substitution, with no elimination; the
    # proof of rand_rep needs c c_inv = I.
    draws = 0
    for n in range(1, 11):
        for seed in range(30):
            c, c_inv = rand_unimodular(random.Random(f"unimodular {n}/{seed}"), n)
            assert all(type(v) is int for v in c.entries + c_inv.entries)
            assert fraction_product(c, c_inv) == QMatrix.identity(n)
            assert c_inv == inverse(c)
            draws += 1
    assert draws >= 300


def test_unit_lower_inverse_is_the_elimination_inverse():
    rng = random.Random(67)
    for trial in range(120):
        n = trial % 11
        bound = (3, 50, 2**40)[trial % 3]
        low = [1 if i == j else (rng.randint(-bound, bound) if i > j else 0)
               for i in range(n) for j in range(n)]
        got = _unit_lower_inverse(low, n)
        assert all(type(v) is int for v in got)
        assert QMatrix(n, n, tuple(got)) == inverse(QMatrix(n, n, tuple(low)))


def test_conjugate_refuses_a_wrong_inverse():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(1, 5)
        rep = rand_rep(rng, n)
        c, c_inv = rand_unimodular(rng, n)
        doubled = c_inv.scale(2)
        # c X (2 c^-1) = 2X' and c Y (2 c^-1) = 2Y' satisfy the relation (both
        # sides scale by 4), so only the inverse check catches 2 c^-1.
        assert RepPair(fraction_product(c, rep.X, doubled), fraction_product(c, rep.Y, doubled))
        bumped = c_inv + QMatrix.diagonal([1] + [0] * (n - 1))
        for wrong in (doubled, bumped, inverse(c.scale(3))):
            with pytest.raises(ValueError, match="not the inverse"):
                conjugate(rep, c, wrong)
        with pytest.raises(SizeMismatchError):
            conjugate(rep, QMatrix.identity(n + 1))
        with pytest.raises(SizeMismatchError):
            conjugate(rep, c, QMatrix.identity(n + 1))


def shifted_block(k: int, lam) -> "tuple[QMatrix, QMatrix]":
    return x_zero(k) + QMatrix.identity(k).scale(lam), jordan_matrix(Partition((k,)))


def test_decompose_summands_verify_and_match_the_fraction_conjugate():
    rng = random.Random(63)
    reps = [rep for rep in (rand_rep(rng, rng.randint(1, 6)) for _ in range(30))
            if rational_roots(char_poly(rep.X)) is not None]
    assert len(reps) >= 10
    for _ in range(10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        blocks = [shifted_block(k, lam)
                  for k, lam in zip(sizes, rng.sample(range(-5, 6), len(sizes)))]
        x = block_diag([b[0] for b in blocks])
        y = block_diag([b[1] for b in blocks])
        c, c_inv = rand_unimodular(rng, x.rows)
        reps.append(conjugate(RepPair(x, y), c, c_inv))
    for rep in reps:
        # ``imagealg._summands`` builds the pairs for ``decompose`` and ``quiver``.
        cb, pairs = imagealg._summands(rep, rational_roots(char_poly(rep.X)))
        for s in pairs:
            assert RepPair(s.X, s.Y) == s
        cb_inv = inverse(cb)
        assert block_diag([s.X for s in pairs]) == fraction_product(cb_inv, rep.X, cb)
        assert block_diag([s.Y for s in pairs]) == fraction_product(cb_inv, rep.Y, cb)
        result = decompose(rep)
        assert result.summands == tuple(pairs) and result.change_of_basis == cb


def transposed(m: QMatrix) -> QMatrix:
    return QMatrix.from_rows([[m[i, j] for i in range(m.rows)] for j in range(m.cols)])


def test_ideal_codim_flipped_pair_verifies(monkeypatch):
    closed = []
    right_ideal = imagealg._right_ideal

    def recording(rep, seeds):
        closed.append(rep)
        return right_ideal(rep, seeds)

    monkeypatch.setattr(imagealg, "_right_ideal", recording)
    rng = random.Random(64)
    gens = [parse_poly(g) for g in ("y", "x^2", "x*y - y*x")]
    for _ in range(12):
        rep = rand_rep(rng, rng.randint(1, 6))
        a = image_algebra(rep)
        closed.clear()
        ideal_codim(a, gens)
        assert closed[0] == rep
        flipped = closed[1]
        assert flipped == RepPair(transposed(rep.X), -transposed(rep.Y))
        assert RepPair(flipped.X, flipped.Y) == flipped


@pytest.mark.parametrize("parts", ["1", "3", "3,2", "4,2,2,1", "2,2,2"])
@pytest.mark.parametrize("seed", [None, 0, 5])
def test_rep_build_pairs_verify(capsys, parts, seed):
    partition = Partition.of(int(p) for p in parts.split(","))
    argv = ["rep", "build", "--partition", parts]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    n = partition.n
    rep = RepPair(parse_matrix(data["X"], n, n, "X"), parse_matrix(data["Y"], n, n, "Y"))
    assert out == json.dumps(rep_to_json(rep, partition), indent=2) + "\n"
    assert rep.Y == jordan_matrix(partition)
    if seed is None:
        assert rep.X == fiber_basis(partition).particular
    else:
        assert rep.X == fiber_point_by_fractions(random.Random(seed), partition)
