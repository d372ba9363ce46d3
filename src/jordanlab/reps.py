"""Finite-dimensional representations: verified matrix pairs (X, Y).

Sign convention (important): with Y the upper Jordan block and the literal
relation X@Y - Y@X = Y@Y, the forced constraint on the first superdiagonal
of X is c_i - c_{i+1} = 1, so the distinguished particular solution x_zero(n)
carries the decreasing sequence (0, -1, -2, ..., -(n-2)).  An increasing
sequence would satisfy the opposite commutator orientation instead; the two
choices differ by the algebra automorphism y -> -y and give the same image
algebra dimensions, orbit data and census numbers.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import NamedTuple

from .errors import (
    NotFullBlockJordanCoordinatesError,
    OutOfRangeError,
    RelationViolationError,
    SizeMismatchError,
)
from .freealg import NcPoly, NormalPoly, normal_form
from .matrices import QMatrix, _horner, _product, block_diag, flat_matmul, inverse
from .polynomials import UniPoly
from .scalars import Scalar, _Record, _set


class Partition(_Record):
    """Weakly decreasing positive parts; indexes Jordan forms and strata."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        super().__init__(parts)

    @classmethod
    def of(cls, parts) -> "Partition":
        return cls(tuple(sorted((int(p) for p in parts), reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def ascending(self) -> tuple:
        return tuple(sorted(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@lru_cache(maxsize=None)
def jordan_block(n: int) -> QMatrix:
    """Nilpotent upper Jordan block: ones on the first superdiagonal."""
    if n < 1:
        raise ValueError("Jordan block size must be >= 1")
    return QMatrix(n, n, tuple(1 if j == i + 1 else 0
                               for i in range(n) for j in range(n)))


@lru_cache(maxsize=None)
def jordan_matrix(p: Partition) -> QMatrix:
    """Block-diagonal nilpotent Jordan matrix with blocks in stored order."""
    return block_diag([jordan_block(k) for k in p.parts])


@lru_cache(maxsize=None)
def x_zero(n: int) -> QMatrix:
    """Distinguished solution of X*J - J*X = J^2, superdiagonal (0,-1,-2,...).

    With c_i = -i on the superdiagonal, entry (i, i+2) of X*J - J*X is
    c_i - c_(i+1) = 1, as in J^2, and every other entry of both is 0.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return QMatrix(n, n, tuple(-(i) if j == i + 1 else 0
                               for i in range(n) for j in range(n)))


class RepPair(_Record):
    """Verified pair: X@Y - Y@X = Y@Y holds exactly.

    Every pair is verified at construction or proved at its call site.
    ``RepPair(X, Y)`` (and ``verify_rep``) checks the relation on any input.
    The private ``RepPair._proved`` skips the check, and is called only
    where a docstring proves the relation:
    - ``conjugate``: conjugation by an invertible c is an automorphism;
    - ``sampling.rand_rep`` and ``rep build``: a fiber point of
      ``fiber_basis``, conjugated in ``rand_rep`` on integers by a
      unimodular c = L U and c^-1 = U^-1 L^-1, as in ``conjugate``;
    - ``imagealg._summands`` (for ``strata.decompose`` and ``quiver``):
      the diagonal blocks of the pair in a generalized eigenbasis of X;
    - ``imagealg.ideal_codim``: the pair (X^T, -Y^T).
    tests/test_api.py pins that list, and a test per site checks its pairs
    against ``RepPair(X, Y)``.

    Construction does not test whether Y is nilpotent: the relation forces
    it.  Proof: by induction [X, Y^k] = k*Y^(k+1), so for every j >= 2,
    Y^j = [X, Y^(j-1)]/(j-1) is a commutator and tr(Y^j) = 0.  Suppose Y
    had N >= 1 distinct nonzero eigenvalues nu_i (over a splitting field)
    with multiplicities m_i.  Then sum_i m_i nu_i^j = 0 for j = 2..N+1, and
    the matrix [nu_i^j] of that system is diag(nu_i^2) times a Vandermonde
    matrix on the distinct nu_i, hence invertible: every m_i would be 0.
    So every eigenvalue of Y is 0.

    Nor does construction test whether S(X) is nilpotent, where S is the
    squarefree part of the characteristic polynomial of X (the product of
    (t - lambda_i) over the distinct eigenvalues): that holds for every
    square X.  Proof: over a splitting field char(X) is the product of
    (t - lambda_i)^(m_i) with every m_i <= n, so char(X) divides S^n, and
    Cayley-Hamilton gives char(X)(X) = 0; hence S(X)^n = 0.
    """

    __slots__ = _fields = ("X", "Y")

    def __init__(self, X: QMatrix, Y: QMatrix):
        _set(self, "X", X)
        _set(self, "Y", Y)
        self.__post_init__()

    def __post_init__(self):
        x, y = self.X, self.Y
        if not (x.is_square and y.is_square) or x.rows != y.rows:
            raise SizeMismatchError(
                f"X and Y must be square of equal size, got "
                f"{x.rows}x{x.cols} and {y.rows}x{y.cols}")
        residual = _relation_residual(x, y)
        if residual is not None:
            raise RelationViolationError("XY - YX != Y^2", residual=residual)

    @classmethod
    def _proved(cls, X: QMatrix, Y: QMatrix) -> "RepPair":
        """The pair (X, Y), not checked: for a caller that proves the relation."""
        rep = object.__new__(cls)
        _set(rep, "X", X)
        _set(rep, "Y", Y)
        return rep

    @property
    def n(self) -> int:
        return self.X.rows


def _relation_residual(x: QMatrix, y: QMatrix) -> "QMatrix | None":
    """XY - YX - Y^2, or None when it vanishes.

    Computed on the pair over one denominator: with (X, Y) = (A, B)/d, d
    the lcm of the two stored denominators, the residual is ((A - B)B -
    BA)/d^2, so the check is two integer products.
    """
    n, d = x.rows, lcm(x.den, y.den)
    a = [v * (d // x.den) for v in x.nums]
    b = [v * (d // y.den) for v in y.nums]
    left = flat_matmul([p - q for p, q in zip(a, b)], b, n, n, n)
    residual = [p - q for p, q in zip(left, flat_matmul(b, a, n, n, n))]
    if not any(residual):
        return None
    return QMatrix._reduced(n, n, residual, d * d)


class Violation(_Record):
    """Failed relation check; carries the residual XY - YX - Y^2."""

    __slots__ = _fields = ("residual",)

    def __init__(self, residual: QMatrix):
        super().__init__(residual)

    def __bool__(self) -> bool:
        return False


def verify_rep(x: QMatrix, y: QMatrix):
    """RepPair when the relation holds exactly, else a Violation."""
    try:
        return RepPair(x, y)
    except RelationViolationError as exc:
        return Violation(exc.residual)


@lru_cache(maxsize=None)
def epsilon_rep(n: int) -> RepPair:
    """The distinguished full-block representation (x_zero(n), J_n)."""
    return RepPair(x_zero(n), jordan_block(n))


def canonical_pair(lam, mu, n: int) -> RepPair:
    """X = lam*I + mu*J + x_zero(n), Y = J_n; the two-parameter normal form."""
    j = jordan_block(n)
    x = QMatrix.identity(n).scale(lam) + j.scale(mu) + x_zero(n)
    return RepPair(x, j)


class CanonicalParams(_Record):
    __slots__ = _fields = ("lam", "mu")

    def __init__(self, lam: Scalar, mu: Scalar):
        super().__init__(lam, mu)


def extract_params(rep: RepPair) -> CanonicalParams:
    """(lambda, mu) = (lam, p[1]) of ``full_block_canonicalize``.

    Invariant under conjugation by the unipotent stabilizer
    {I + a_1 J + ... + a_(n-1) J^(n-1)}.  For n = 1 the offset mu is
    reported as 0 (p = 0; there is no superdiagonal).  Row 0 of x_zero(n)
    is zero, so this is the first row of X, (X[0, 0], X[0, 1]).
    """
    lam, p = full_block_canonicalize(rep)
    return CanonicalParams(lam=lam, mu=p[1])


def full_block_canonicalize(rep: RepPair) -> "tuple[Scalar, UniPoly]":
    """(lam, p) with X = lam*I + p(J_n) + x_zero(n) and p(0) = 0.

    The identity holds for every verified pair, so X is not rebuilt to
    check it.  Proof: X and x_zero(n) both solve T*J - J*T = J^2 (the
    relation with Y = J_n), so C = X - x_zero(n) commutes with J_n.  By the
    fiber_basis theorem for the one-part partition (n), the centralizer of
    J_n is spanned by the 0/1 diagonals d = 0..n-1 of one n x n block, that
    is by I, J_n, ..., J_n^(n-1): C = sum_k c_k J_n^k is a polynomial in
    J_n, constant along each diagonal.  Its first row reads c_k = C[0, k],
    so lam = C[0, 0] and p = sum_(k>=1) C[0, k] t^k.
    """
    if rep.n < 1 or rep.Y != jordan_block(rep.n):
        raise NotFullBlockJordanCoordinatesError(
            "Y must be exactly the full Jordan block J_n (n >= 1)")
    t = rep.X - x_zero(rep.n)
    return t[0, 0], UniPoly([0] + [t[0, k] for k in range(1, rep.n)])


class FiberBasis(NamedTuple):
    particular: QMatrix
    basis: "list[QMatrix]"


@lru_cache(maxsize=None)
def fiber_basis(p: Partition) -> FiberBasis:
    """All solutions X of X@Y - Y@X = Y@Y for Y = jordan_matrix(p).

    The solution set is particular + span(basis).  The particular solution
    is block_diag(x_zero(k) for each part k): it is block-diagonal like Y,
    so the relation holds block by block, where it is the x_zero identity.
    The relation is affine in X with linear part X |-> X@Y - Y@X, so the
    other solutions differ from it by the centralizer of Y, whose basis is
    written down, not solved for (Gantmacher, The Theory of Matrices I,
    Ch. VIII, Sec. 2).

    Spanning.  Cut C into blocks C_ab (n_a x n_b) along the parts; C@Y =
    Y@C holds iff C_ab J_(n_b) = J_(n_a) C_ab for every block.  Entry (r, c)
    of the left side is C_ab[r, c-1] (0 for c = 0), of the right side
    C_ab[r+1, c] (0 for r = n_a - 1).  So C_ab is constant along each
    diagonal d = c - r, the first column vanishes below row 0 and the last
    row left of column n_b - 1.  A diagonal meets that first column iff
    d < 0 and that last row iff d < n_b - n_a, and those equations only
    relate cells of one diagonal; so C_ab commutes iff it is constant on
    the diagonals d in [max(0, n_b - n_a), n_b) and zero elsewhere.  The
    0/1 matrix of each such diagonal has ones at (start_a + r, start_b +
    r + d) for r < n_b - d (which is <= n_a); these have disjoint supports,
    so they are a basis, of size sum over (a, b) of min(n_a, n_b).

    Order.  The basis is sorted by the last (row-major) cell of each
    support, and that is exactly the canonical kernel basis that
    nullspace_basis returns for the row-major Sylvester operator of Y.
    Column j of an operator is free (not a pivot) iff some kernel vector
    has its last nonzero entry at j, and the canonical vector of a free
    column j is the unique kernel vector with 1 at j and 0 at the other
    free columns; nullspace_basis lists them by increasing j.  Every
    diagonal of a block (a, b) ends in the last column of block b, at a
    row of block a that its d fixes, so the last cells are distinct, and a
    kernel basis with distinct last cells has those cells as its free
    columns (a combination of basis vectors has its last nonzero entry at
    the largest last cell among the vectors it uses).  The supports are
    disjoint, so each diagonal is 1 at its own last cell and 0 at every
    other free column: it is the canonical vector of its last cell.

    The supports come from ``_centralizer_supports`` in this order;
    ``strata.census`` counts the diagonals (``_centralizer_diagonals``) and
    ``sampling.rand_fiber_point`` sums over the supports without building
    the matrices.
    """
    n = p.n
    basis = []
    for cells in _centralizer_supports(p):
        entries = [0] * (n * n)
        for cell in cells:
            entries[cell] = 1
        basis.append(QMatrix._of(n, n, tuple(entries), 1))  # 0/1: integral
    return FiberBasis(_particular_solution(p), basis)


@lru_cache(maxsize=None)
def _particular_solution(p: Partition) -> QMatrix:
    """block_diag(x_zero(k) for each part k), the particular solution of
    ``fiber_basis``, built without the centralizer basis."""
    return block_diag([x_zero(k) for k in p.parts])


def _centralizer_supports(p: Partition) -> "list[list[int]]":
    """The support of each diagonal of ``_centralizer_diagonals``, as
    row-major cells of an n x n matrix."""
    n = p.n
    return [[(row + r) * n + col + r for r in range(i + 1)]
            for row, col, i in _centralizer_diagonals(p)]


def _centralizer_diagonals(p: Partition):
    """(first row, first column, i) of each 0/1 diagonal of the
    ``fiber_basis`` theorem, which has i + 1 cells: for each block (a, b),
    the diagonals d in [max(0, n_b - n_a), n_b).  They are a basis of the
    centralizer of jordan_matrix(p), so their number is its dimension.

    They come sorted by last cell, the ``fiber_basis`` order.  Diagonal d
    of block (a, b) ends in the last column of block b, at local row
    i = n_b - 1 - d of block a, and d runs over its range exactly when i
    runs over [0, min(n_a, n_b)); so the loops take a, then i, then b."""
    starts = list(accumulate(p.parts, initial=0))
    for start_a, n_a in zip(starts, p.parts):
        for i in range(n_a):
            for start_b, n_b in zip(starts, p.parts):
                if i < n_b:
                    yield start_a, start_b + n_b - 1 - i, i


def conjugate(rep: RepPair, c: QMatrix, c_inv: "QMatrix | None" = None) -> RepPair:
    """The conjugated pair (c X c^-1, c Y c^-1).

    It is not re-verified.  Proof: conjugation by an invertible c is an
    algebra automorphism of M_n, so (cXc^-1)(cYc^-1) - (cYc^-1)(cXc^-1) =
    c(XY - YX)c^-1 = cY^2c^-1 = (cYc^-1)^2.  Its hypothesis is that c_inv
    is the inverse of c.  Omitted, c_inv is ``inverse(c)``, which is exact.
    Given, it is checked by one product, c c_inv = I (for square matrices
    that makes c_inv c = I too), and a ValueError is raised otherwise.
    Each side is one fraction-free triple product (``matrices._product``).
    """
    n = rep.n
    given = c_inv is not None
    if not given:
        c_inv = inverse(c)
    for m in (c, c_inv):
        if m.rows != n or m.cols != n:
            raise SizeMismatchError(f"conjugator must be {n}x{n}, got {m.rows}x{m.cols}")
    if given and _product(c, c_inv) != QMatrix.identity(n):
        raise ValueError("c_inv is not the inverse of c")
    return RepPair._proved(_product(c, rep.X, c_inv), _product(c, rep.Y, c_inv))


def evaluate(f, rep: RepPair) -> QMatrix:
    """Evaluate an NcPoly or NormalPoly at (X, Y); an algebra homomorphism.

    An NcPoly is evaluated through its normal form, which is exact: the
    pair is verified, so the map x -> X, y -> Y kills xy - yx - y^2 and
    factors through R = k<x,y>/(xy - yx - y^2), where f and normal_form(f)
    are equal.  A letter outside {x, y} raises ValueError (``normal_form``).
    The normal form is stored as N/d with integer numerators N (see
    ``NormalPoly``), so f(X, Y) = N(X, Y)/d.  Y is nilpotent (``RepPair``),
    so Y^n = 0 and the terms with k >= n are dropped before the table of
    the p_k, N = sum_(k<=K) Y^k p_k(X), is built.  Horner's rule in Y runs
    on integers: with X = M/e and Y = B/g stored and D the largest degree
    in x, I_K = Q_K(M) and I_k = B I_(k+1) + Q_k(M) give I_0 = e^D g^K
    N(X, Y), where Q_k(M) = e^D g^(K-k) p_k(X) is ``matrices._horner`` of
    g^(K-k) p_k.  The rows share one table of the powers of M, so each
    power is formed once per call, and one gcd divides I_0 by d e^D g^K.
    """
    if isinstance(f, NcPoly):
        f = normal_form(f)
    if not isinstance(f, NormalPoly):
        raise TypeError(f"cannot evaluate {type(f).__name__}")
    n, x, y = rep.n, rep.X, rep.Y
    nums, den = f.numerators()
    terms = [(km, c) for km, c in nums.items() if km[0] < n]
    top = max((k for (k, _), _ in terms), default=0)
    deg = max((m for (_, m), _ in terms), default=0)
    rows = [[0] * (deg + 1) for _ in range(top + 1)]  # rows[k]: g^(K-k) p_k, lowest first
    for (k, m), c in terms:
        rows[k][m] = c * y.den ** (top - k)
    powers, acc = {1: x.nums}, [0] * (n * n)
    for k in range(top, -1, -1):
        if k < top:
            acc = flat_matmul(y.nums, acc, n, n, n)
        if any(rows[k]):
            acc = [a + b for a, b in zip(acc, _horner(rows[k], x.den, deg, powers, n))]
    return QMatrix._reduced(n, n, acc, den * x.den ** deg * y.den ** top)


class WitnessResult(enum.Enum):
    IN_IDEAL = "in-ideal"
    NOT_FOUND_BELOW_MAX = "not-found-below-max"


def _least_nonroot(d: int, coeffs: "dict[int, int]") -> int:
    """Least i in 0..d with P_d(i) != 0 (``faithful_witness``), coeffs
    mapping k to c_k (scaled to integers, which keeps every root): P_d(i)
    over the product for K = max(coeffs), which is 0 only at i = K = 0 < d.
    That quotient, sum_k (-1)^(K-k) c_k (i+k)...(i+K-1), is summed by
    Horner's rule over the rising factors, acc = acc (i+k-1) + (-1)^(K-k) c_k
    from the least k up: one small factor per step."""
    top, low = max(coeffs), min(coeffs)

    def value(i: int) -> int:
        acc = 0
        for k in range(low, top + 1):
            acc = acc * (i + k - 1) + (-1) ** (top - k) * coeffs.get(k, 0)
        return acc

    return next(i for i in range(d + 1) if not i == top == 0 < d and value(i))


def faithful_witness(f: NcPoly, max_n: "int | None" = None):
    """Least n with eval(f, epsilon_n) != 0, searching n <= max_n.

    Returns WitnessResult.IN_IDEAL when f reduces to 0 (f lies in the
    defining ideal).  Otherwise the witness is read off the normal form, and
    no matrix is built.  Both matrices of epsilon_n are supported on the
    first superdiagonal (Y^k moves row i to row i + k, and X = x_zero(n)
    moves row j to j + 1 with the factor -j), so the degree-d part of f
    lands on the d-th superdiagonal.  Distinct degrees fill distinct
    superdiagonals and cannot cancel, so eval(f, epsilon_n) != 0 iff some
    degree d of f has a nonzero row i < n - d.  That row is P_d(i) with
    P_d = sum_k c_k (-1)^(d-k) (i+k)(i+k+1)...(i+d-1) for the coefficients
    c_k of y^k x^(d-k).  These products have the distinct degrees d - k, so
    P_d is nonzero of degree <= d and has a nonroot i in 0..d: the witness
    is the least d + 1 + i over the degrees d of f and the least nonroots i
    of P_d, at most 2*deg(f) + 1.  The product for the largest k present,
    K, divides every term and vanishes only at i = K = 0 < d, so
    ``_least_nonroot`` tests the quotient, whose products have at most K
    factors, instead of P_d (``faithful "x^99999"`` multiplies no factors).
    Over epsilon_n the bound 2*deg(f) + 1 is sharp.  The products span all
    polynomials of degree <= d, so some f of each degree d has
    P_d(i) = i(i-1)...(i-d+1), which vanishes on every row while n <= 2*d;
    f = x is the case d = 1 (zero at n = 1 and 2, least witness 3).
    max_n defaults to max(1, 2*deg(f)), below that bound, so under the
    default WitnessResult.NOT_FOUND_BELOW_MAX does not mean that f lies in
    the ideal: ``jordanlab faithful x`` prints not-found-below-max.
    Raises OutOfRangeError for max_n < 1.
    """
    if max_n is not None and max_n < 1:
        raise OutOfRangeError(f"max_n must be >= 1, got {max_n}")
    nf = normal_form(f)
    if nf.is_zero():
        return WitnessResult.IN_IDEAL
    if max_n is None:
        max_n = max(1, 2 * nf.degree)
    by_degree: "dict[int, dict[int, int]]" = {}
    for (k, m), c in nf.numerators()[0].items():
        by_degree.setdefault(k + m, {})[k] = c
    least = min(d + 1 + _least_nonroot(d, coeffs) for d, coeffs in by_degree.items())
    return least if least <= max_n else WitnessResult.NOT_FOUND_BELOW_MAX
