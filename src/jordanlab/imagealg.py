"""Analysis of the image algebra A generated by a verified pair (X, Y).

Every span here is a right ideal s*A of explicit seeds: A itself is I*A,
and since Y is normal (AY = YA) the radical and its cuts J e_i and J^2 e_i
are right ideals too (proof in ``radical_basis``).  A two-sided ideal AgA
is the left closure of the right ideal gA; transposed, that is a right
ideal of the pair (X^T, -Y^T) (proof in ``ideal_codim``).  One closure
builds them all, level by level in Y:
A = k[X] + YA, so s*A is the X-chains of the seeds' products s*Y^j, each
stopped at its first rejected candidate (proof in ``_right_ideal``).  The
closure runs on flat integer vectors (row-major n x n entries) and integer
products; a ``QMatrix`` is built only for what a public function returns.
The eigenprojections of X, read from the generalized eigenbasis that
``strata.decompose`` also uses, are central in A (proof in
``idempotents``), so the quiver is diagonal.  Everything here needs one
rational spectrum of X per call, and refuses (typed error) when the
spectrum is irrational.
"""

from __future__ import annotations

from functools import cached_property

from .errors import IrrationalEigenvaluesError, OutOfRangeError
from .freealg import NormalPoly
from .matrices import (
    QMatrix,
    SpanBuilder,
    _product,
    char_poly,
    flat_matmul,
    inverse,
    nullspace_basis,
    poly_at_matrix,
)
from .polynomials import UniPoly, rational_roots
from .reps import RepPair, evaluate
from .scalars import Scalar, _Record, primitive_integral, scalar_str


class ImageAlgebra(_Record):
    """The unital algebra generated by X and Y, as an echelonized span.

    Stores the span's integral reduced-echelon rows (gcd-reduced, positive
    pivots) and their pivot columns: an immutable, hashable snapshot from
    which the dimension is read directly and the basis is built on demand.

    ``closure_certified`` is True by construction: the theorem of
    ``_right_ideal`` proves the span closed under right products by X and
    Y, so no product of a basis element is tested.
    """

    # rows: a tuple of int per basis element, pivot-sorted; pivots: the
    # pivot column of each row.  No __slots__: ``basis`` is cached in __dict__.
    _fields = ("rep", "rows", "pivots", "closure_certified")

    def __init__(self, rep: RepPair, rows: tuple, pivots: tuple, closure_certified: bool):
        super().__init__(rep, rows, pivots, closure_certified)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple:
        """QMatrix basis in canonical reduced-echelon order (unit pivots)."""
        n = self.rep.n
        span = SpanBuilder(n * n, list(self.rows), list(self.pivots))
        return tuple(QMatrix(n, n, vec) for vec in span.basis_vectors())


def _right_ideal(rep: RepPair, seeds) -> SpanBuilder:
    """The right ideal M = seeds*A, closed level by level in Y.

    Seeds and candidates are row-major integer entry sequences; the seeds
    need not lie in A.  Level j holds the nonzero products s*Y^j of the
    seeds s; Y is nilpotent, so there are at most n levels.  From the
    deepest level to level 0, each seed product v starts an X-chain: the
    span takes v, then the product by X of the row it stored for v, and so
    on until it rejects a candidate.  That row is primitive and zero at
    every earlier pivot, so it is smaller than the raw product v*X^k.  The
    products are by the primitive integer multiples of X and Y (closing
    under products by a nonzero multiple of a matrix is closing under
    products by the matrix), so every product is integral and no fraction
    is formed.

    Theorem: the span is M.  Proof, with A = k[X] + YA and AY = YA
    (``radical_basis``, (a) and (b)):
    (i) The level recursion.  AY^j = Y^jA, so M*Y^j = sum of s_i Y^j A: each
        M*Y^j is a right ideal, and A = k[X] + YA splits it as
        M*Y^j = sum of s_i Y^j k[X] + M*Y^(j+1).
    (ii) The stopping rule.  Let S be X-stable and v*X^m lie in
        span(v, ..., v*X^(m-1)) + S.  That span plus S is then X-stable,
        so it holds v*k[X].
    (ii') The chain from stored rows is the chain of v.  Let S be X-stable
        and S_k = S + span(v, ..., v*X^(k-1)).  Claim: the k-th candidate
        u_k is c_k*v*X^k + t_k with c_k != 0 and t_k in S_k, so the span
        before it is S_k, and it is accepted iff v*X^k is.  For k = 0,
        u_0 = v.  The row stored for an accepted u_k is r_k = beta*u_k + s
        with beta != 0 and s in S_k (``SpanBuilder.add``), and S_k*X lies
        in S + span(v*X, ..., v*X^k), which is S_(k+1), as S is X-stable.
        So u_(k+1) = r_k*X = beta*c_k*v*X^(k+1) + (beta*t_k + s)*X, a
        nonzero multiple of v*X^(k+1) plus a vector of S_(k+1).  Hence the
        chain makes the same accept/reject sequence as v, v*X, v*X^2, ...
        and leaves the same span S + span(v, ..., v*X^(m-1)) behind.
    (iii) By induction from the deepest level, below which M*Y^(j+1) = 0:
        the span before level j is M*Y^(j+1), which is X-stable; after each
        of the level's X-chains it is still X-stable and, by (ii) and
        (ii'), holds that candidate's s_i Y^j k[X].  So by (i) the span
        after level j is M*Y^j, and after level 0 it is M.  Every vector
        added lies in M.
    The span is canonical (``SpanBuilder``), so ``rows`` and ``pivots`` are
    those of any other closure of the same seeds.  (The span before each
    chain is X-stable in any order of the chains, so the theorem needs no
    order; deepest first makes the span before level j equal M*Y^(j+1),
    which the count below uses.)

    Cost: for the identity seed each level ends with exactly one
    rejection, so ``image_algebra`` makes dim A + nu calls of
    ``SpanBuilder.add``, nu the nilpotency index of Y; by (ii') that count
    is the same as for chains of raw products v*X^k.  Y^j is not in
    Y^(j+1)A for j < nu: else Y^jA = Y^(j+1)A, and right products by Y,
    which map Y^iA onto Y^(i+1)A since AY = YA, give Y^jA = Y^nu A = 0.
    """
    n = rep.n
    x, y = primitive_integral(rep.X.entries), primitive_integral(rep.Y.entries)
    levels = [[vec for vec in seeds if any(vec)]]
    while levels[-1]:
        levels.append([w for w in (flat_matmul(v, y, n, n, n) for v in levels[-1]) if any(w)])
    span = SpanBuilder(n * n)
    for level in reversed(levels):
        for vec in level:
            row = span.add(vec)
            while row:
                row = span.add(flat_matmul(row, x, n, n, n))
    return span


def image_algebra(rep: RepPair) -> ImageAlgebra:
    """A as the right ideal I*A: all words in X, Y from the identity seed."""
    span = _right_ideal(rep, [QMatrix.identity(rep.n).entries])
    return ImageAlgebra(rep, tuple(map(tuple, span.rows)), tuple(span.pivots), True)


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


def _radical_generators(rep: RepPair, spectrum) -> "list[list[int]]":
    """Y and S(X), S = prod of (t - lambda), as primitive integer vectors."""
    s = UniPoly.from_roots([lam for lam, _ in spectrum])
    return [primitive_integral(m.entries) for m in (rep.Y, poly_at_matrix(s, rep.X))]


def radical_basis(a: ImageAlgebra) -> "list[QMatrix]":
    """Basis of the Jacobson radical J(A).

    J(A) is the two-sided ideal of A generated by Y together with
    S(X) = prod of (X - lambda*I) over the distinct eigenvalues: modulo that
    ideal the algebra is k[x]/(S), a product of fields.  Requires the
    spectrum of X to be rational.

    Theorem: J = YA + S(X)A, so J is the right ideal of {Y, S(X)} and no
    left product is formed.  (This rests on the normality of Y and on
    (b); the ideal of a general g is not gA, see ``ideal_codim``.)  Proof:
    (a) Y is normal, AY = YA.  XY = Y(X + Y) and YX = (X - Y)Y, so by
        induction on word length every word w has wY in YA and Yw in AY.
    (b) A S(X) lies in S(X)A + YA.  A word with a letter Y lies in
        A Y A = YA by (a), so A = k[X] + YA, and k[X] S(X) = S(X) k[X].
        With (a), A(YA + S(X)A) lies in YA + S(X)A: that right ideal is a
        two-sided ideal containing Y and S(X), so it is (Y, S(X)) = J.
    (c) J^2 = YJ + S(X)J, since J J = Y(AJ) + S(X)(AJ) and AJ = J.
    (d) The e_i are central (see ``idempotents``), so J e_i = Y e_i A +
        S(X) e_i A, and by (c), with A J e_i = J e_i, J^2 e_i = J (J e_i) is
        the right ideal of the four products g h e_i with g, h in {Y, S(X)}.

    The radical has dimension dim A - r for the r distinct eigenvalues, so
    the result is not re-checked.  Proof: XY = Y(X + Y), so X preserves
    ker Y, and likewise every ker Y^k; refining that flag by a triangular
    form of X gives an A-stable full flag whose 1-dimensional quotients
    carry the characters X -> lambda_i, Y -> 0, every lambda_i occurring.
    These kill Y and S(X), and by Lagrange interpolation in X they map
    A/(Y, S(X)) onto Q^r; that quotient is spanned by 1, X, ..., X^(r-1),
    so its dimension is exactly r.
    """
    n = a.rep.n
    span = _right_ideal(a.rep, _radical_generators(a.rep, rational_spectrum(a.rep.X)))
    return [QMatrix(n, n, vec) for vec in span.basis_vectors()]


def _eigenbasis(x: QMatrix, spectrum) -> "tuple[QMatrix, QMatrix]":
    """C and C^-1, where the columns of C are the canonical kernel bases of
    the (X - lambda)^mult in spectrum order: block i of C spans the
    generalized eigenspace V_i of the i-th eigenvalue, of dimension mult
    (Jordan form), and V is the direct sum of the V_i."""
    n = x.rows
    columns = []
    for lam, mult in spectrum:
        columns += nullspace_basis(poly_at_matrix(UniPoly.from_roots([lam] * mult), x))
    c = QMatrix(n, n, tuple(columns[j][i] for i in range(n) for j in range(n)))
    return c, inverse(c)


def _eigenprojections(x: QMatrix, spectrum) -> "list[QMatrix]":
    """E_i = C P_i C^-1 (see idempotents), P_i the 0/1 diagonal of block i."""
    c, c_inv = _eigenbasis(x, spectrum)
    # the block of each column of C
    block = [i for i, (_, mult) in enumerate(spectrum) for _ in range(mult)]
    return [_product(c, QMatrix.diagonal(int(b == i) for b in block), c_inv)
            for i in range(len(spectrum))]


def idempotents(a: ImageAlgebra) -> "list[QMatrix]":
    """Complete orthogonal idempotents, one per distinct eigenvalue of X.

    These are the exact generalized eigenprojections E_i = C P_i C^-1, with
    C from ``_eigenbasis`` and P_i the 0/1 diagonal of its block i: exactly
    idempotent, pairwise orthogonal, summing to the identity, and reducing
    to the classical system (X - lambda_1)...(hat).../p(lambda_i) modulo the
    radical.  E_i is the projection onto V_i along the other V_j; that
    projection is unique and a polynomial in X (Hoffman & Kunze, Linear
    Algebra, 2nd ed., 6.8), so E_i lies in A.

    These identities hold by construction, so they are not re-checked.
    Proof: the P_i are orthogonal idempotents that sum to I, and conjugation
    by C keeps these identities.  X maps each V_i into itself, so
    X C = C diag(X|V_1, ..., X|V_r); P_i commutes with that block diagonal,
    so each E_i commutes with X.  Let W be X-stable and W_i = W cap V_i.
    The W_i are the generalized eigenspaces of X|W (its eigenvalues are
    among the lambda_i, and W_i = ker (X|W - lambda_i)^(m_i)), so W is the
    sum of the W_i and E_i W = W_i lies in W.

    Theorem: each e_i commutes with Y too, so it is central in A.  Proof:
    [X, Y^k] = k*Y^(k+1), so F_k = Y^k V is stable under X, hence (above)
    under every e_i.  Say T has shift s if T F_k lies in F_(k+s) for all k.
    The e's commute with X and sum to 1, so projecting XY - YX = Y^2 gives
    X Z_ml - Z_ml X = sum_v Z_mv Z_vl for Z_ml = e_m Y e_l.  For m != l the
    Sylvester map T -> XT - TX is invertible on the maps e_m T e_l (X has
    the one eigenvalue lambda_m on e_m V, lambda_l on e_l V) and keeps each
    shift s, so it is onto the maps of shift s.  Every Z has shift 1; if
    every Z_ml with m != l has shift s, each Z_mv Z_vl has such a factor,
    so the sum and hence Z_ml have shift s + 1.  Y is nilpotent, F_n = 0,
    so Z_ml = 0 for m != l: Y = sum_m e_m Y e_m commutes with every e_i.
    """
    return _eigenprojections(a.rep.X, rational_spectrum(a.rep.X))


class QuiverData(_Record):
    """Vertices = distinct eigenvalues of X; arrows[i][j] = dim e_i(J/J^2)e_j."""

    __slots__ = _fields = ("vertices", "arrows")  # arrows: a tuple of int per vertex

    def __init__(self, vertices: tuple, arrows: tuple):
        super().__init__(vertices, arrows)

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
    """Exact quiver of the (basic) image algebra.

    The e_i are central (see ``idempotents``), so e_i J e_j = J e_i e_j is 0
    for i != j and J e_i for i = j, and J e_i meets J^2 in J^2 e_i = J (J e_i):
    dim e_i (J/J^2) e_j is 0 off the diagonal and dim J e_i - dim J^2 e_i on it.
    Both are right ideals of explicit seeds (``radical_basis``, (d)), so the
    radical itself is not spanned.
    """
    spectrum = rational_spectrum(a.rep.X)
    n = a.rep.n
    gens = _radical_generators(a.rep, spectrum)
    loops = []
    for e in _eigenprojections(a.rep.X, spectrum):
        e = primitive_integral(e.entries)
        ge = [flat_matmul(g, e, n, n, n) for g in gens]
        je = _right_ideal(a.rep, ge)
        j2e = _right_ideal(a.rep, [flat_matmul(g, h, n, n, n) for g in gens for h in ge])
        loops.append(je.rank - j2e.rank)
    arrows = tuple(tuple(loop if i == j else 0 for j in range(len(loops)))
                   for i, loop in enumerate(loops))
    return QuiverData(tuple(lam for lam, _ in spectrum), arrows)


def ideal_codim(a: ImageAlgebra, gens) -> int:
    """Codimension in A of the two-sided ideal generated by the given
    polynomials evaluated at (X, Y).

    Theorem: with M = gA the right ideal of the images g, the ideal is AM,
    and its transpose is the right ideal of the transposed rows of M in
    the image algebra of (X^T, -Y^T).  So it takes two right closures and
    forms no left product.  Proof: A is unital, so AgA = A(gA) = AM, summed
    over the generators.  Transposition reverses products, so (AM)^T =
    M^T A^T, and A^T is generated by X^T and Y^T, hence by X^T and -Y^T.
    That pair satisfies the relation, X^T(-Y^T) - (-Y^T)X^T = (XY - YX)^T
    = (Y^2)^T = (-Y^T)^2, so the pair is not re-verified, and
    ``_right_ideal`` closes M^T A^T from any spanning set of M^T, such as
    the transposed rows of M.  Transposition keeps dimensions.
    """
    rep, n = a.rep, a.rep.n
    images = [primitive_integral(evaluate(g, rep).entries) for g in gens]
    right = _right_ideal(rep, images)
    flipped = RepPair._proved(QMatrix(n, n, _transposed(rep.X.entries, n)),
                              -QMatrix(n, n, _transposed(rep.Y.entries, n)))
    return a.dim - _right_ideal(flipped, [_transposed(row, n) for row in right.rows]).rank


def _transposed(vec, n: int) -> tuple:
    """The row-major entries of the transpose of a row-major n x n matrix."""
    return tuple(v for i in range(n) for v in vec[i::n])


def _normal_monomials(max_degree: int) -> "list[tuple[int, int]]":
    """(k, m) of every y^k x^m with k + m <= max_degree, by (degree, number of y's)."""
    if max_degree < 0:
        raise OutOfRangeError(f"max_degree must be >= 0, got {max_degree}")
    return [(k, d - k) for d in range(max_degree + 1) for k in range(d + 1)]


def discover_relations(rep: RepPair, max_degree: int) -> "list[NormalPoly]":
    """Canonical basis of the degree-bounded relations of the image algebra.

    Kernel of the evaluation map from span{y^k x^m : k+m <= max_degree} to
    n x n matrices, echelonized over the monomial list ordered by (degree,
    number of y's).  Each monomial's image is one product from an earlier
    one: X^m = X^(m-1) X, and Y^k X^m = Y (Y^(k-1) X^m), which has degree
    one less and so comes before it in that order.
    """
    monomials = _normal_monomials(max_degree)
    images = {(0, 0): QMatrix.identity(rep.n)}
    for k, m in monomials[1:]:
        images[k, m] = rep.Y @ images[k - 1, m] if k else images[0, m - 1] @ rep.X
    columns = [images[km].entries for km in monomials]
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
