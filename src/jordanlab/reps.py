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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    NotFullBlockJordanCoordinatesError,
    RelationViolationError,
    RepeatedBlockSizesError,
    SizeMismatchError,
)
from .freealg import NcPoly, NormalPoly, X as XSYM, normal_form
from .matrices import (
    QMatrix,
    block_diag,
    char_poly,
    common_denominator,
    inverse,
    is_nilpotent,
    nullspace_basis,
    poly_at_matrix,
)
from .polynomials import UniPoly
from .scalars import Scalar, exact


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; indexes Jordan forms and strata."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

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
    """Distinguished solution of X*J - J*X = J^2, superdiagonal (0,-1,-2,...)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    m = QMatrix(n, n, tuple(-(i) if j == i + 1 else 0
                            for i in range(n) for j in range(n)))
    j = jordan_block(n)
    if m @ j - j @ m != j @ j:
        raise AssertionError("x_zero construction violated its contract")
    return m


@dataclass(frozen=True)
class RepPair:
    """Verified pair: X@Y - Y@X = Y@Y holds exactly and Y is nilpotent.

    Construction does not test whether S(X) is nilpotent, where S is the
    squarefree part of the characteristic polynomial of X (the product of
    (t - lambda_i) over the distinct eigenvalues): that holds for every
    square X.  Proof: over a splitting field char(X) is the product of
    (t - lambda_i)^(m_i) with every m_i <= n, so char(X) divides S^n, and
    Cayley-Hamilton gives char(X)(X) = 0; hence S(X)^n = 0.
    """

    X: QMatrix
    Y: QMatrix

    def __post_init__(self):
        x, y = self.X, self.Y
        if not (x.is_square and y.is_square) or x.rows != y.rows:
            raise SizeMismatchError(
                f"X and Y must be square of equal size, got "
                f"{x.rows}x{x.cols} and {y.rows}x{y.cols}")
        residual = _relation_residual(x, y)
        if residual is not None:
            raise RelationViolationError("XY - YX != Y^2", residual=residual)
        if not is_nilpotent(y):
            raise RelationViolationError("Y is not nilpotent")

    @property
    def n(self) -> int:
        return self.X.rows


def _relation_residual(x: QMatrix, y: QMatrix) -> "QMatrix | None":
    """XY - YX - Y^2, or None when it vanishes.

    Computed on the jointly denominator-cleared pair: the relation is
    homogeneous quadratic, so it holds for (X, Y) iff it holds for
    (d*X, d*Y), and the scaled check is pure integer arithmetic.
    """
    d = common_denominator([x, y])
    xs = x.scale(d) if d != 1 else x
    ys = y.scale(d) if d != 1 else y
    residual = xs @ ys - ys @ xs - ys @ ys
    if residual.is_zero():
        return None
    return residual.scale(Fraction(1, d * d)) if d != 1 else residual


@dataclass(frozen=True)
class Violation:
    """Failed relation check; carries the residual XY - YX - Y^2."""

    residual: QMatrix

    def __bool__(self) -> bool:
        return False


def verify_rep(x: QMatrix, y: QMatrix):
    """RepPair when the relation holds exactly, else a Violation."""
    if not (x.is_square and y.is_square) or x.rows != y.rows:
        raise SizeMismatchError(
            f"X and Y must be square of equal size, got "
            f"{x.rows}x{x.cols} and {y.rows}x{y.cols}")
    residual = _relation_residual(x, y)
    if residual is None:
        return RepPair(x, y)
    return Violation(residual)


@lru_cache(maxsize=None)
def epsilon_rep(n: int) -> RepPair:
    """The distinguished full-block representation (x_zero(n), J_n)."""
    return RepPair(x_zero(n), jordan_block(n))


def canonical_pair(lam, mu, n: int) -> RepPair:
    """X = lam*I + mu*J + x_zero(n), Y = J_n; the two-parameter normal form."""
    j = jordan_block(n)
    x = QMatrix.identity(n).scale(lam) + j.scale(mu) + x_zero(n)
    return RepPair(x, j)


@dataclass(frozen=True)
class CanonicalParams:
    lam: Scalar
    mu: Scalar


def extract_params(rep: RepPair) -> CanonicalParams:
    """Read (lambda, mu) off the first row of X in full-block coordinates.

    Invariant under conjugation by the unipotent stabilizer
    {I + a_1 J + ... + a_(n-1) J^(n-1)}.  For n = 1 the offset mu is
    reported as 0 (there is no superdiagonal).
    """
    n = rep.n
    if rep.Y != jordan_block(n):
        raise NotFullBlockJordanCoordinatesError(
            "extract_params requires Y to be exactly the full Jordan block")
    mu = rep.X[0, 1] if n >= 2 else 0
    return CanonicalParams(lam=rep.X[0, 0], mu=mu)


def full_block_canonicalize(rep: RepPair):
    """Decompose X as lam*I + p(J) + x_zero(n) with p(0) = 0.

    X - x_zero(n) commutes with the nonderogatory J_n, hence is a polynomial
    in J_n whose coefficients sit in the first row.  Returns (lam, p,
    residue); the residue is the zero matrix on success.
    """
    n = rep.n
    j = jordan_block(n)
    if rep.Y != j:
        raise NotFullBlockJordanCoordinatesError(
            "full_block_canonicalize requires Y to be exactly the full Jordan block")
    t = rep.X - x_zero(n)
    lam = t[0, 0]
    p = UniPoly([0] + [t[0, k] for k in range(1, n)])
    reconstructed = QMatrix.identity(n).scale(lam) + poly_at_matrix(p, j) + x_zero(n)
    residue = rep.X - reconstructed
    return lam, p, residue


def sylvester_operator(y: QMatrix) -> QMatrix:
    """Matrix of X |-> X@y - y@X on row-major vectorized n x n matrices."""
    n = y.rows
    size = n * n
    rows = []
    for i in range(n):
        for jcol in range(n):
            row = [0] * size
            for b in range(n):
                v = y[b, jcol]
                if v != 0:
                    row[i * n + b] += v
            for a in range(n):
                v = y[i, a]
                if v != 0:
                    row[a * n + jcol] -= v
            rows.append(row)
    return QMatrix(size, size, tuple(v for row in rows for v in row))


class FiberBasis(NamedTuple):
    particular: QMatrix
    basis: "list[QMatrix]"


@lru_cache(maxsize=None)
def fiber_basis(p: Partition) -> FiberBasis:
    """All solutions X of X@Y - Y@X = Y@Y for Y = jordan_matrix(p).

    The solution set is particular + span(basis); the basis is the canonical
    nullspace of the vectorized Sylvester operator, i.e. a basis of the
    centralizer of the Jordan matrix.
    """
    y = jordan_matrix(p)
    n = y.rows
    particular = block_diag([x_zero(k) for k in p.parts])
    if particular @ y - y @ particular != y @ y:
        raise AssertionError("fiber particular solution violated the relation")
    kernel = nullspace_basis(sylvester_operator(y))
    basis = [QMatrix(n, n, vec) for vec in kernel]
    return FiberBasis(particular, basis)


def is_b_toeplitz(m: QMatrix, p: Partition) -> bool:
    """Structural check: every block (including diagonal ones) is an upper
    rectangular Toeplitz matrix supported in its top-right corner."""
    offsets = [0]
    for part in p.parts:
        offsets.append(offsets[-1] + part)
    if m.rows != offsets[-1] or not m.is_square:
        return False
    for bi, ni in enumerate(p.parts):
        for bj, nj in enumerate(p.parts):
            r0, c0 = offsets[bi], offsets[bj]
            min_d = max(0, nj - ni)
            for r in range(ni):
                for c in range(nj):
                    v = m[r0 + r, c0 + c]
                    d = c - r
                    if d < min_d:
                        if v != 0:
                            return False
                    elif r + 1 < ni and c + 1 < nj:
                        if v != m[r0 + r + 1, c0 + c + 1]:
                            return False
    return True


def conjugate(rep: RepPair, c: QMatrix, c_inv: "QMatrix | None" = None) -> RepPair:
    """The conjugated pair (c X c^-1, c Y c^-1), re-verified."""
    if c_inv is None:
        c_inv = inverse(c)
    d = common_denominator([rep.X, rep.Y, c, c_inv])
    if d == 1:
        return RepPair(c @ rep.X @ c_inv, c @ rep.Y @ c_inv)
    # Conjugate the cleared pair in integer arithmetic, undo the scale after.
    cs, cis = c.scale(d), c_inv.scale(d)
    undo = Fraction(1, d * d * d)
    return RepPair((cs @ rep.X.scale(d) @ cis).scale(undo),
                   (cs @ rep.Y.scale(d) @ cis).scale(undo))


def evaluate(f, rep: RepPair) -> QMatrix:
    """Evaluate an NcPoly or NormalPoly at (X, Y); an algebra homomorphism."""
    n = rep.n
    ident = QMatrix.identity(n)
    if isinstance(f, NormalPoly):
        max_k = max((k for k, _ in f.support()), default=0)
        max_m = max((m for _, m in f.support()), default=0)
        pow_y = _power_table(rep.Y, max_k, ident)
        pow_x = _power_table(rep.X, max_m, ident)
        acc = QMatrix.zeros(n)
        for (k, m), c in f.items():
            acc = acc + (pow_y[k] @ pow_x[m]).scale(c)
        return acc
    if isinstance(f, NcPoly):
        acc = QMatrix.zeros(n)
        for word, c in f.items():
            prod = ident
            for ch in word:
                prod = prod @ (rep.X if ch == XSYM else rep.Y)
            acc = acc + prod.scale(c)
        return acc
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def _power_table(m: QMatrix, up_to: int, ident: QMatrix) -> "list[QMatrix]":
    powers = [ident]
    for _ in range(up_to):
        powers.append(powers[-1] @ m)
    return powers


def eigenvalues_distinct_blocks(rep: RepPair, p: Partition, diag_values) -> "list[Scalar]":
    """Eigenvalues of X read off the block diagonals, with multiplicities.

    Only valid when the Jordan blocks of Y have pairwise different sizes;
    the read-off is verified against the characteristic polynomial of X.
    """
    parts = p.parts
    if len(set(parts)) != len(parts):
        raise RepeatedBlockSizesError(
            "eigenvalue read-off requires pairwise distinct block sizes")
    if rep.Y != jordan_matrix(p):
        raise NotFullBlockJordanCoordinatesError(
            "rep must be in the Jordan coordinates of the given partition")
    values = [exact(v) for v in diag_values]
    if len(values) != len(parts):
        raise SizeMismatchError("one diagonal value per block is required")
    offset = 0
    for size, lam in zip(parts, values):
        for i in range(size):
            if rep.X[offset + i, offset + i] != lam:
                raise ValueError(
                    f"X does not carry the claimed value {lam} on block diagonal")
        offset += size
    expected = UniPoly.from_roots([lam for size, lam in zip(parts, values)
                                   for _ in range(size)])
    if char_poly(rep.X) != expected:
        raise ValueError("block-diagonal values do not match the spectrum of X")
    out = [lam for size, lam in zip(parts, values) for _ in range(size)]
    return sorted(out)


class WitnessResult(enum.Enum):
    IN_IDEAL = "in-ideal"
    NOT_FOUND_BELOW_MAX = "not-found-below-max"


def faithful_witness(f: NcPoly, max_n: "int | None" = None):
    """Least n with eval(f, epsilon_n) != 0, searching n <= max_n.

    Returns WitnessResult.IN_IDEAL when f reduces to 0 (f lies in the
    defining ideal).  Otherwise a witness exists at some n <= 2*deg(f) + 1,
    and over epsilon_n that bound is sharp.  Both matrices of epsilon_n are
    supported on the first superdiagonal, so the degree-d part of f lands on
    the d-th superdiagonal, whose row i (0 <= i < n - d) is P(i) with
    P = sum_k c_k (-1)^(d-k) (i+k)(i+k+1)...(i+d-1) for the coefficients
    c_k of y^k x^(d-k).  These products have the distinct degrees d - k, so
    P is nonzero of degree <= d and n - d >= d + 1 rows cannot all vanish.
    They span all polynomials of degree <= d, so some f of each degree d has
    P(i) = i(i-1)...(i-d+1), which vanishes on every row while n <= 2*d;
    f = x is the case d = 1 (zero at n = 1 and 2, least witness 3).
    max_n defaults to max(1, 2*deg(f)), below that bound, so under the
    default WitnessResult.NOT_FOUND_BELOW_MAX does not mean that f lies in
    the ideal: ``jordanlab faithful x`` prints not-found-below-max.
    """
    nf = normal_form(f)
    if nf.is_zero():
        return WitnessResult.IN_IDEAL
    if max_n is None:
        max_n = max(1, 2 * nf.degree)
    for n in range(1, max_n + 1):
        if not evaluate(nf, epsilon_rep(n)).is_zero():
            return n
    return WitnessResult.NOT_FOUND_BELOW_MAX
