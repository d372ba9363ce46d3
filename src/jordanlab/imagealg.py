"""Analysis of the image algebra A generated by a verified pair (X, Y).

The span of all words in X and Y (including the identity) is closed by a
worklist; radical, idempotents and quiver data are then exact linear algebra
inside that span.  Everything here requires nothing beyond rational
eigenvalues of X, and refuses (typed error) when the spectrum is irrational.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import IrrationalEigenvaluesError, OutOfRangeError
from .freealg import NormalPoly
from .matrices import (
    QMatrix,
    SpanBuilder,
    char_poly,
    int_normalized,
    nullspace_basis,
    poly_at_matrix,
)
from .polynomials import UniPoly, poly_ext_gcd, rational_roots
from .reps import RepPair, evaluate
from .scalars import Scalar, scalar_str


@dataclass(frozen=True)
class ImageAlgebra:
    """The unital algebra generated by X and Y, as an echelonized span.

    Stores the span's integral reduced-echelon rows (gcd-reduced, positive
    pivots) and their pivot columns: an immutable, hashable snapshot from
    which the dimension is read directly and the basis is built on demand.
    """

    rep: RepPair
    rows: tuple  # of tuple of int, one per basis element, pivot-sorted
    pivots: tuple  # pivot column of each row
    closure_certified: bool

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple:
        """QMatrix basis in canonical reduced-echelon order (unit pivots)."""
        n = self.rep.n
        span = SpanBuilder(n * n, list(self.rows), list(self.pivots))
        return tuple(QMatrix(n, n, vec) for vec in span.basis_vectors())


def image_algebra(rep: RepPair) -> ImageAlgebra:
    """Span closure of all words in X, Y from the identity seed.

    Right multiplication by the two generators suffices to reach every word.
    The fixpoint certificate: once the worklist drains, every spanning
    element has had both its right-products reduced to zero against the
    span, i.e. one more full round cannot change the rank.
    """
    n = rep.n
    span = SpanBuilder(n * n)
    ident = QMatrix.identity(n)
    span.add(ident.entries)
    # Scaling any spanning element by a nonzero rational leaves the span
    # unchanged, so the worklist carries coprime-integer representatives.
    gens = (int_normalized(rep.X), int_normalized(rep.Y))
    queue = deque([ident])
    accepted = 1
    processed = 0
    while queue:
        m = queue.popleft()
        processed += 1
        for gen in gens:
            prod = int_normalized(m @ gen)
            if span.add(prod.entries):
                queue.append(prod)
                accepted += 1
    certified = processed == accepted and span.rank == accepted
    return ImageAlgebra(rep, tuple(map(tuple, span.rows)), tuple(span.pivots),
                        certified)


def dim_bound(n: int) -> int:
    """Largest possible image dimension: n(n+2)/4 for even n, (n+1)^2/4 odd."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return n * (n + 2) // 4 if n % 2 == 0 else (n + 1) ** 2 // 4


def rational_spectrum(x: QMatrix) -> "list[tuple[Scalar, int]]":
    """Eigenvalues with multiplicities; error unless the spectrum is rational."""
    roots = rational_roots(char_poly(x))
    if roots is None:
        raise IrrationalEigenvaluesError(
            "the characteristic polynomial of X does not split over Q")
    return roots


def _ideal_closure(a: ImageAlgebra, seeds) -> SpanBuilder:
    """Two-sided ideal span closure of the seeds under left/right X, Y."""
    n = a.rep.n
    span = SpanBuilder(n * n)
    queue = deque()
    for s in seeds:
        s = int_normalized(s)
        if span.add(s.entries):
            queue.append(s)
    x, y = int_normalized(a.rep.X), int_normalized(a.rep.Y)
    while queue:
        m = queue.popleft()
        for prod in (x @ m, m @ x, y @ m, m @ y):
            prod = int_normalized(prod)
            if span.add(prod.entries):
                queue.append(prod)
    return span


def radical_basis(a: ImageAlgebra) -> "list[QMatrix]":
    """Basis of the Jacobson radical J(A).

    J(A) is the two-sided ideal of A generated by Y together with
    S(X) = prod of (X - lambda*I) over the distinct eigenvalues: modulo that
    ideal the algebra is k[x]/(S), a product of fields.  Requires the
    spectrum of X to be rational.

    The radical has dimension dim A - r for the r distinct eigenvalues, so
    the result is not re-checked.  Proof: XY = Y(X + Y), so X preserves
    ker Y, and likewise every ker Y^k; refining that flag by a triangular
    form of X gives an A-stable full flag whose 1-dimensional quotients
    carry the characters X -> lambda_i, Y -> 0, every lambda_i occurring.
    These kill Y and S(X), and by Lagrange interpolation in X they map
    A/(Y, S(X)) onto Q^r; that quotient is spanned by 1, X, ..., X^(r-1),
    so its dimension is exactly r.
    """
    spectrum = rational_spectrum(a.rep.X)
    s = UniPoly.from_roots([lam for lam, _ in spectrum])
    span = _ideal_closure(a, [poly_at_matrix(s, a.rep.X), a.rep.Y])
    n = a.rep.n
    return [QMatrix(n, n, vec) for vec in span.basis_vectors()]


def idempotents(a: ImageAlgebra) -> "list[QMatrix]":
    """Complete orthogonal idempotents, one per distinct eigenvalue of X.

    These are the exact generalized eigenprojections: polynomials in X that
    are exactly idempotent, pairwise orthogonal and sum to the identity, and
    reduce to the classical system (X - lambda_1)...(hat).../p(lambda_i)
    modulo the radical.

    These identities hold by construction, so they are not re-checked.
    Proof: char = prod p_j with p_j = (t - lambda_j)^(m_j) pairwise coprime,
    so the monic gcd of q_i = char/p_i and p_i is 1 and u*q_i + v*p_i = 1.
    Then E_i = u*q_i mod char satisfies E_i = delta_ij (mod p_j) for every
    j, so char divides E_i^2 - E_i, sum_i E_i - 1 and E_i*E_j (i != j), and
    Cayley-Hamilton turns each of these into an identity at X.
    """
    spectrum = rational_spectrum(a.rep.X)
    char = char_poly(a.rep.X)
    out = []
    for lam, mult in spectrum:
        p_i = UniPoly.from_roots([lam] * mult)
        q_i = char // p_i
        _, u, _ = poly_ext_gcd(q_i, p_i)
        out.append(poly_at_matrix((u * q_i) % char, a.rep.X))
    return out


@dataclass(frozen=True)
class QuiverData:
    """Vertices = distinct eigenvalues of X; arrows[i][j] = dim e_i(J/J^2)e_j."""

    vertices: tuple
    arrows: tuple  # of tuple of int

    def loop_count(self) -> int:
        if len(self.vertices) != 1:
            raise ValueError("loop count is only meaningful for one vertex")
        return self.arrows[0][0]

    def to_json(self) -> dict:
        return {
            "vertices": [scalar_str(v) for v in self.vertices],
            "arrows": [list(row) for row in self.arrows],
        }


def quiver(a: ImageAlgebra) -> QuiverData:
    """Exact quiver of the (basic) image algebra."""
    spectrum = rational_spectrum(a.rep.X)
    vertices = [lam for lam, _ in spectrum]
    rad = radical_basis(a)
    es = idempotents(a)
    n = a.rep.n
    rad_sq = SpanBuilder(n * n)
    for b1 in rad:
        for b2 in rad:
            rad_sq.add((b1 @ b2).entries)
    arrows = []
    for ei in es:
        row = []
        for ej in es:
            # add() never mutates a row in place, so copying the lists is safe.
            sb = SpanBuilder(n * n, list(rad_sq.rows), list(rad_sq.pivots))
            for b in rad:
                sb.add((ei @ b @ ej).entries)
            row.append(sb.rank - rad_sq.rank)
        arrows.append(tuple(row))
    return QuiverData(tuple(vertices), tuple(arrows))


def ideal_codim(a: ImageAlgebra, gens) -> int:
    """Codimension in A of the two-sided ideal generated by the given
    polynomials evaluated at (X, Y); genuine two-sided closure."""
    images = [evaluate(g, a.rep) for g in gens]
    span = _ideal_closure(a, images)
    return a.dim - span.rank


def _normal_monomials(max_degree: int) -> "list[tuple[int, int]]":
    """(k, m) of every y^k x^m with k + m <= max_degree, by (degree, number of y's)."""
    if max_degree < 0:
        raise OutOfRangeError(f"max_degree must be >= 0, got {max_degree}")
    return [(k, d - k) for d in range(max_degree + 1) for k in range(d + 1)]


def discover_relations(rep: RepPair, max_degree: int) -> "list[NormalPoly]":
    """Canonical basis of the degree-bounded relations of the image algebra.

    Kernel of the evaluation map from span{y^k x^m : k+m <= max_degree} to
    n x n matrices, echelonized over the monomial list ordered by (degree,
    number of y's).
    """
    monomials = _normal_monomials(max_degree)
    columns = [evaluate(NormalPoly.monomial(k, m), rep).entries for k, m in monomials]
    n2 = rep.n * rep.n
    eval_matrix = QMatrix(n2, len(monomials),
                          tuple(columns[c][r] for r in range(n2)
                                for c in range(len(monomials))))
    kernel = nullspace_basis(eval_matrix)
    return [NormalPoly({monomials[i]: v for i, v in enumerate(vec)})
            for vec in kernel]


def relation_coefficient_vector(poly: NormalPoly, max_degree: int) -> "tuple[Scalar, ...]":
    """Coefficients of a normal polynomial over the discover_relations basis order."""
    monomials = _normal_monomials(max_degree)
    index = {km: i for i, km in enumerate(monomials)}
    vec: list[Scalar] = [0] * len(monomials)
    for (k, m), c in poly.items():
        if (k, m) not in index:
            raise ValueError(f"monomial y^{k} x^{m} exceeds degree bound {max_degree}")
        vec[index[(k, m)]] = c
    return tuple(vec)
