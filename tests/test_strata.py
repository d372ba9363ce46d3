"""Partition enumeration, census rows, decomposition and Jacobian ranks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jordanlab import (
    IrrationalEigenvaluesError,
    OutOfRangeError,
    Partition,
    QMatrix,
    RepPair,
    TameLabel,
    block_diag,
    census,
    char_poly,
    conjugate,
    decompose,
    epsilon_rep,
    fiber_basis,
    inverse,
    jacobian_rank,
    jordan_matrix,
    partitions,
    rank,
    single_eigenvalue_test,
    x_zero,
)
from jordanlab.sampling import rand_rational, rand_rep, rand_unimodular
from jordanlab.scalars import cleared
from jordanlab.strata import _orbit_differential
from centralizer_oracle import sylvester_operator
from orbit_oracle import matrix_differential, polynomial_in_j

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}


def shifted_epsilon(k: int, lam) -> RepPair:
    return RepPair(x_zero(k) + QMatrix.identity(k).scale(lam),
                   jordan_matrix(Partition((k,))))


# -- partitions ---------------------------------------------------------------


def test_partitions_one():
    assert partitions(1) == [Partition((1,))]


def test_partition_counts():
    for n, count in PARTITION_COUNTS.items():
        assert len(partitions(n)) == count


def test_partitions_order_and_shape():
    ps = partitions(4)
    assert [p.parts for p in ps] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for p in ps:
        assert sum(p.parts) == 4


def test_partitions_descending_lex():
    for n in range(1, 9):
        parts_list = [p.parts for p in partitions(n)]
        assert parts_list == sorted(parts_list, reverse=True)


# -- census ---------------------------------------------------------------------


def test_census_n4_rows():
    rows = {r.partition.parts: r for r in census(4)}
    assert rows[(4,)].fiber_dim == 4
    assert rows[(4,)].base_dim == 12
    assert rows[(2, 2)].fiber_dim == 8
    assert rows[(2, 2)].base_dim == 8
    assert rows[(1, 1, 1, 1)].fiber_dim == 16
    assert rows[(1, 1, 1, 1)].base_dim == 0
    assert all(r.stratum_dim == 16 for r in rows.values())


def test_census_equidimensional():
    for n in range(1, 8):
        rows = census(n)
        assert len(rows) == PARTITION_COUNTS[n]
        for r in rows:
            assert r.fiber_dim + r.base_dim == n * n
            assert r.stratum_dim == n * n


def test_census_tame_labels():
    labels = {r.partition.parts: r.tame for r in census(5)}
    assert labels[(5,)] is TameLabel.WILD
    assert labels[(4, 1)] is TameLabel.UNKNOWN
    labels4 = {r.partition.parts: r.tame for r in census(4)}
    assert labels4[(4,)] is TameLabel.TAME
    labels1 = {r.partition.parts: r.tame for r in census(1)}
    assert labels1[(1,)] is TameLabel.TAME


def test_census_builds_no_matrix(monkeypatch):
    # fiber_dim counts the centralizer diagonals: no fiber_basis, no QMatrix
    built = []
    init = QMatrix.__post_init__

    def counting_init(self):
        built.append((self.rows, self.cols))
        init(self)

    fiber_basis.cache_clear()
    monkeypatch.setattr(QMatrix, "__post_init__", counting_init)
    census(10)
    monkeypatch.undo()
    assert fiber_basis.cache_info().misses == 0
    assert built == []


def test_census_fiber_dim_is_the_centralizer_dimension():
    # n <= 7: the kernel dimension of the Sylvester operator, solved for;
    # n <= 12: the size of the fiber_basis basis
    for n in range(1, 13):
        for row in census(n):
            p = row.partition
            assert row.fiber_dim == len(fiber_basis(p).basis)
            if n <= 7:
                assert row.fiber_dim == n * n - rank(sylvester_operator(jordan_matrix(p)))


def test_census_json_schema():
    row = census(3)[0].to_json()
    assert set(row) == {"partition", "fiber_dim", "base_dim", "stratum_dim",
                        "image_dim_bound", "tame"}
    assert row["partition"] == [3]
    assert row["tame"] == "tame"


# -- decomposition -----------------------------------------------------------------


def test_decompose_diagonal():
    rep = RepPair(QMatrix.diagonal([1, 2]), QMatrix.zeros(2))
    result = decompose(rep)
    assert len(result) == 2
    assert result.eigenvalues == (1, 2)
    assert all(s.n == 1 for s in result)


def test_decompose_shifted_epsilon_is_single():
    rep = shifted_epsilon(3, 5)
    result = decompose(rep)
    assert len(result) == 1
    assert result[0].X == rep.X and result[0].Y == rep.Y


def test_decompose_two_block_assembly():
    a, b = shifted_epsilon(2, 1), shifted_epsilon(2, 2)
    rep = RepPair(block_diag([a.X, b.X]), block_diag([a.Y, b.Y]))
    result = decompose(rep)
    assert len(result) == 2
    assert result.eigenvalues == (1, 2)
    assert result[0].X == a.X and result[1].X == b.X


def test_decompose_certificate_conjugates():
    rng = random.Random(40)
    for _ in range(10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        lams = rng.sample(range(-5, 6), len(sizes))
        blocks = [shifted_epsilon(k, lam) for k, lam in zip(sizes, lams)]
        assembled = RepPair(block_diag([b.X for b in blocks]),
                            block_diag([b.Y for b in blocks]))
        c, c_inv = rand_unimodular(rng, assembled.n)
        rep = conjugate(assembled, c, c_inv)
        result = decompose(rep)
        assert len(result) == len(set(lams))
        reassembled_x = block_diag([s.X for s in result])
        reassembled_y = block_diag([s.Y for s in result])
        cb = result.change_of_basis
        cb_inv = inverse(cb)
        assert cb_inv @ rep.X @ cb == reassembled_x
        assert cb_inv @ rep.Y @ cb == reassembled_y
        for s in result:
            assert single_eigenvalue_test(s)


def test_decompose_irrational_refused():
    rep = RepPair(QMatrix.from_rows([[0, 1], [2, 0]]), QMatrix.zeros(2))
    with pytest.raises(IrrationalEigenvaluesError):
        decompose(rep)


def test_multiple_eigenvalues_implies_decomposable():
    rng = random.Random(41)
    for _ in range(10):
        rep = rand_rep(rng, rng.randint(2, 5))
        if single_eigenvalue_test(rep):
            continue
        try:
            result = decompose(rep)
        except IrrationalEigenvaluesError:
            continue
        assert len(result) >= 2


# -- single eigenvalue test ----------------------------------------------------------


def test_single_eigenvalue_epsilon():
    for n in range(1, 7):
        assert single_eigenvalue_test(epsilon_rep(n))


def test_single_eigenvalue_diagonal():
    assert not single_eigenvalue_test(RepPair(QMatrix.diagonal([1, 2]), QMatrix.zeros(2)))


def test_single_eigenvalue_canonical_pair():
    from jordanlab import canonical_pair

    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 6)
        assert single_eigenvalue_test(
            canonical_pair(rand_rational(rng), rand_rational(rng), n))


def test_single_eigenvalue_empty_rep_is_out_of_range():
    with pytest.raises(OutOfRangeError):
        single_eigenvalue_test(RepPair(QMatrix.zeros(0), QMatrix.zeros(0)))


# -- jacobian rank ---------------------------------------------------------------------


def test_jacobian_rank_two_is_zero():
    assert jacobian_rank(2, [5], [7]) == 0
    assert jacobian_rank(2, [Fraction(1, 3)], [0]) == 0


def test_jacobian_rank_three_at_identity():
    assert jacobian_rank(3, [0, 0], [2, Fraction(1, 3)]) == 1


def test_jacobian_rank_ten():
    rng = random.Random(43)
    c = [rand_rational(rng) for _ in range(9)]
    x = [rand_rational(rng) for _ in range(9)]
    assert jacobian_rank(10, c, x) == 8


def test_jacobian_rank_generic():
    rng = random.Random(44)
    for n in range(3, 9):
        for _ in range(8):
            c = [rand_rational(rng) for _ in range(n - 1)]
            x = [rand_rational(rng) for _ in range(n - 1)]
            assert jacobian_rank(n, c, x) == n - 2


def test_jacobian_rank_input_handling():
    with pytest.raises(OutOfRangeError):
        jacobian_rank(1, [], [])
    # missing coefficients are 0; those beyond the first n - 1 are not read
    assert jacobian_rank(5, [], []) == 3
    assert jacobian_rank(3, [1, 2, 0.5], [1, 2, 0.5]) == 1
    with pytest.raises(TypeError):
        jacobian_rank(3, [1, 0.5], [1, 2])
    with pytest.raises(TypeError):
        jacobian_rank(3, [1, 2], [0.5])  # x is checked although it drops out


def orbit_draw(rng: random.Random, n: int) -> list:
    """n - 1 coefficients; every third draw has denominators up to 97."""
    if rng.randrange(3):
        return [rand_rational(rng) for _ in range(n - 1)]
    return [Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for _ in range(n - 1)]


def test_orbit_differential_matches_matrix_oracle():
    # Each matrix image is the Toeplitz matrix of its series row, so the
    # rows have the rank of the images.
    rng = random.Random(45)
    draws = 0
    for n in range(2, 11):
        for _ in range(36):
            c, x = orbit_draw(rng, n), orbit_draw(rng, n)
            rows = _orbit_differential(n, c)
            images = matrix_differential(n, c, x)
            assert len(rows) == len(images) == n - 1
            for row, image in zip(rows, images):
                assert list(image.row(0)) == row
                assert image == polynomial_in_j(n, row)
            draws += 1
    assert draws >= 300


def test_jacobian_rank_scales_the_rows_and_columns_of_the_series():
    # jacobian_rank takes the series at the integers c_i D^i (c_i = C_i/D):
    # row k is the rational row with its J^m entry times D^m D^-(k+1), and
    # the rank is that of the rational rows.
    rng = random.Random(48)
    for n in range(2, 13):
        for _ in range(6):
            c = orbit_draw(rng, n)
            nums, d = cleared(c)
            ints = _orbit_differential(n, [v * d ** i for i, v in enumerate(nums)])
            rows = _orbit_differential(n, c)
            assert all(type(v) is int for row in ints for v in row)
            assert ints == [[v * Fraction(d ** m, d ** (k + 1)) for m, v in enumerate(row)]
                            for k, row in enumerate(rows, 1)]
            assert jacobian_rank(n, c, []) == rank(QMatrix.from_rows(rows)) == n - 2


def test_char_poly_of_assemblies_consistent():
    # decompose must preserve spectra blockwise
    a, b = shifted_epsilon(2, 3), shifted_epsilon(3, -1)
    rep = RepPair(block_diag([a.X, b.X]), block_diag([a.Y, b.Y]))
    result = decompose(rep)
    product = char_poly(result[0].X) * char_poly(result[1].X)
    assert product == char_poly(rep.X)
