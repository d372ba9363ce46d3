"""Analysis of the image algebra A generated by a verified pair (X, Y).

Every span closed here is a right ideal s*A of explicit seeds: A is I*A;
since Y is normal (AY = YA), the radical of a one-eigenvalue pair and its
square are right ideals (proof in ``quiver``); and a two-sided ideal AgA,
transposed, is a right ideal of the pair (X^T, -Y^T) (proof in
``ideal_codim``).  One closure builds them all, level by level in Y:
A = k[X] + YA, so s*A is the X-chains of the seeds' products s*Y^j, each
stopped at its first rejected candidate (proof in ``_right_ideal``).  It
runs on flat integer vectors (row-major n x n entries) and integer
products; a ``QMatrix`` is built only for what a public function returns.
The radical is the kernel of the trace form on the reduced rows of A (proof
in ``radical_basis``).  The eigenprojections of X are central (proof in
``idempotents``), so the quiver is diagonal and each vertex's loops are
closed in its eigen-summand's m_i^2 coordinates.  Everything here needs a
rational spectrum of X, and refuses (typed error) an irrational one.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import mul

from .errors import IrrationalEigenvaluesError, OutOfRangeError
from .freealg import NormalPoly, _exponents, _index
from .matrices import (
    QMatrix,
    SpanBuilder,
    _echelon,
    _kernel,
    _power,
    _product,
    _transposed,
    char_poly,
    flat_matmul,
    inverse,
    nullspace_basis,
)
from .polynomials import rational_roots
from .reps import RepPair, evaluate
from .scalars import Scalar, _Record, _set, content_free, scalar_str


class ImageAlgebra(_Record):
    """The unital algebra generated by X and Y, as an echelonized span.

    Its fields are the span's canonical integral reduced rows
    (``SpanBuilder``) and their pivot columns: an immutable, hashable
    snapshot.  ``image_algebra`` keeps the closure's span and reads the
    fields and the basis from it on first use, so ``dim``, which needs only
    the pivots, never forms the reduced rows; equality, hash, repr and
    pickling read the fields, as for ``ImageAlgebra(rep, rows, pivots)``.
    The theorem of ``_right_ideal`` proves the span closed under right
    products by X and Y, so no product of a basis element is tested.
    """

    # rows: a tuple of int per basis element, pivot-sorted; pivots: the pivot
    # column of each row.  No __slots__: the span's reads are cached in __dict__.
    _fields = ("rep", "rows", "pivots")

    def __init__(self, rep: RepPair, rows: tuple, pivots: tuple):
        super().__init__(rep, rows, pivots)

    @classmethod
    def _of_span(cls, rep: RepPair, span: SpanBuilder) -> "ImageAlgebra":
        algebra = cls.__new__(cls)
        _set(algebra, "rep", rep)
        _set(algebra, "_span", span)
        return algebra

    @cached_property
    def _span(self) -> SpanBuilder:
        return SpanBuilder(self.rep.n ** 2, list(self.rows), list(self.pivots))

    @cached_property
    def rows(self) -> tuple:
        return tuple(map(tuple, self._span.rows))

    @cached_property
    def pivots(self) -> tuple:
        return tuple(self._span.pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def basis(self) -> tuple:
        """QMatrix basis in canonical reduced-echelon order (unit pivots)."""
        return tuple(_unit_pivot_rows(self._span, self.rep.n))


def _unit_pivot_rows(span: SpanBuilder, n: int) -> "list[QMatrix]":
    """The span's reduced rows over their pivot entries, as n x n matrices:
    a reduced row is primitive with row[p] > 0 at its pivot p, so (row,
    row[p]) is already the stored form of ``QMatrix``."""
    return [QMatrix._of(n, n, tuple(row), row[p]) for row, p in zip(span.rows, span.pivots)]


def _right_ideal(rep: RepPair, seeds) -> SpanBuilder:
    """The right ideal M = seeds*A, closed level by level in Y.

    Seeds and candidates are row-major integer entry sequences; the seeds
    need not lie in A.  Level j holds the nonzero products s*Y^j of the
    seeds s; Y is nilpotent, so there are at most n levels.  From the
    deepest level to level 0, each seed product v starts an X-chain: the
    span takes v, then the product by X of the row it stored for v, and so
    on until it rejects a candidate.  That row is primitive and zero at
    every pivot of the span before it, whether or not the span is kept
    reduced (``SpanBuilder.add``), so it is smaller than the raw product
    v*X^k.  The products are by the primitive integer multiples of X and Y
    (closing under products by a nonzero multiple of a matrix is closing
    under products by the matrix), so every product is integral and no
    fraction is formed.

    Theorem: the span is M.  Proof, with A = k[X] + YA and AY = YA
    (``quiver``, (a) and (b)):
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
        with beta != 0 and s in S_k (``SpanBuilder.add``); the step needs
        nothing else of r_k, and no later add changes it.  S_k*X lies
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
    x, y = content_free(rep.X.nums), content_free(rep.Y.nums)
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
    return ImageAlgebra._of_span(rep, _right_ideal(rep, [QMatrix.identity(rep.n).nums]))


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


def radical_basis(a: ImageAlgebra) -> "list[QMatrix]":
    """Basis of the Jacobson radical J(A), in canonical reduced-echelon order.

    Requires a rational spectrum of X: r distinct eigenvalues lambda_i, of
    multiplicities m_i.

    Theorem: J = {b in A : tr(b X^k) = 0 for k < r}, and dim J = dim A - r.
    Proof: XY = Y(X + Y), so X preserves every ker Y^k; refining that flag
    by a triangular form of X gives an A-stable full flag, in which each b
    in A is triangular with diagonal values chi_i(b), chi_i the character
    X -> lambda_i, Y -> 0 (lambda_i occurring m_i times).  The common
    kernel N of the chi_i is an ideal of strictly triangular, so nilpotent,
    elements, so N lies in J; chi_i(J) is a nil ideal of Q, so J = N.  By
    Lagrange interpolation in X the chi_i map A onto Q^r, so dim J =
    dim A - r (not re-checked).  And tr(b X^k) = sum_i m_i lambda_i^k
    chi_i(b) with an invertible Vandermonde matrix and m_i != 0, so these
    r traces vanish iff every chi_i(b) does.

    So no closure runs.  Traces against the powers of the primitive integer
    multiple x of X (each a nonzero multiple) are taken on the reduced rows
    u_j of A (``ImageAlgebra.rows``), zero at each other's pivots p_j.
    The canonical kernel basis of that trace matrix with its columns
    reversed (``matrices._kernel``, each vector times one positive integer)
    has, per non-pivot column, a vector nonzero there, 0 at the other
    non-pivot columns and nonzero entries only before it; read backwards,
    these are zero before their lead and at every other vector's lead:
    integral multiples of the reduced-echelon basis of the kernel in
    Q^(dim A), each with at most r + 1 nonzero entries.  For such a c, led
    at l, w = sum_j c_j u_j is zero before p_l, c_l u_l != 0 at p_l, and
    zero at every other w's lead.  So the w are a basis of J in
    echelon form, zero at each other's pivots: ``_echelon`` takes no
    elimination step on them, nor does the read of its reduced rows, and
    those are J's canonical ``SpanBuilder`` rows, those of any closure.
    """
    rep, n, d = a.rep, a.rep.n, a.dim
    xt = _transposed(content_free(rep.X.nums), n)
    forms = [QMatrix.identity(n).nums]  # (x^T)^k: tr(u x^k) is the dot product of u and (x^T)^k
    for _ in rational_spectrum(rep.X)[1:]:
        forms.append(flat_matmul(forms[-1], xt, n, n, n))
    traces = ([sum(map(mul, u, f)) for u in reversed(a.rows)] for f in forms)
    kernel = [vec[::-1] for vec in reversed(_kernel(traces, d)[0])]
    w = flat_matmul([c for vec in kernel for c in vec], [v for u in a.rows for v in u],
                    len(kernel), d, n * n)
    span = _echelon((w[i * n * n:(i + 1) * n * n] for i in range(len(kernel))), n * n)
    return _unit_pivot_rows(span, n)


def _eigenbasis(x: QMatrix, spectrum) -> QMatrix:
    """C, whose columns are the canonical kernel bases of the (X - lambda)^mult
    in spectrum order: block i of C spans the generalized eigenspace V_i of
    the i-th eigenvalue, of dimension mult (Jordan form), and V is the
    direct sum of the V_i.  With one eigenvalue (X - lambda)^n = 0
    (Cayley-Hamilton), whose canonical kernel basis is the standard basis:
    C = I, and nothing is computed.  The kernels are those of B^mult, B =
    qd(X - lambda) (``_shifted``), a nonzero multiple of (X - lambda)^mult
    formed on integers by repeated squaring (``matrices._power``)."""
    n = x.rows
    if len(spectrum) == 1:
        return QMatrix.identity(n)
    powers = [_power({1: _shifted(x, lam)}, mult, n) for lam, mult in spectrum]
    kernels = [_kernel((b[i * n:(i + 1) * n] for i in range(n)), n) for b in powers]
    den = lcm(*(d for _, d in kernels))  # the columns over one denominator
    columns = [[v * (den // d) for v in vec] for basis, d in kernels for vec in basis]
    return QMatrix._reduced(n, n, [columns[j][i] for i in range(n) for j in range(n)], den)


def _shifted(x: QMatrix, lam) -> "list[int]":
    """qA - pdI = qd(X - lambda), row-major, for lambda = p/q and X = A/d."""
    p, q, d, n = lam.numerator, lam.denominator, x.den, x.rows
    return [q * v - p * d if k % (n + 1) == 0 else q * v for k, v in enumerate(x.nums)]


def _summands(rep: RepPair, spectrum) -> "tuple[QMatrix, list[RepPair]]":
    """C of ``_eigenbasis`` and the summands (X_i, Y_i), the diagonal blocks
    of (C^-1 X C, C^-1 Y C) in spectrum order.

    Block i of C, the n x m_i matrix C_i, spans V_i, the image of the
    eigenprojection e_i, which commutes with X and Y (``idempotents``).  So
    V_i is invariant under both, X C_i = C_i X_i and Y C_i = C_i Y_i, both
    conjugated matrices are block-diagonal, and each summand satisfies the
    relation, so it is not re-verified: the conjugated pair does
    (``reps.conjugate``), and products of block-diagonal matrices are taken
    block by block.

    No inverse is formed.  Column f of C_i is the canonical kernel vector
    of its free column f (``matrices._kernel``): 1 at f, which is its last
    nonzero entry, and 0 at the other free columns F_i of its block.  So
    the rows F_i of C_i are the identity, and the rows F_i of X C_i =
    C_i X_i are X_i: X_i and Y_i are read off the two products X C and Y C.
    """
    n = rep.n
    c = _eigenbasis(rep.X, spectrum)
    free = [max(i for i in range(n) if c.nums[i * n + j]) for j in range(n)]
    products = _product(rep.X, c), _product(rep.Y, c)
    summands, lo = [], 0
    for _, m in spectrum:
        cells = [free[j] * n + k for j in range(lo, lo + m) for k in range(lo, lo + m)]
        summands.append(RepPair._proved(*(QMatrix._reduced(m, m, [p.nums[i] for i in cells], p.den)
                                          for p in products)))
        lo += m
    return c, summands


def _eigenprojections(x: QMatrix, spectrum) -> "list[QMatrix]":
    """E_i = C P_i C^-1 (see idempotents), P_i the 0/1 diagonal of block i.
    C P_i keeps the columns of block i and zeroes the others, so E_i is the
    product of those m_i columns of C and the m_i rows of C^-1 they meet:
    n^2 m_i steps where the full triple product takes about 2n^3."""
    c = _eigenbasis(x, spectrum)
    c_inv = c if len(spectrum) == 1 else inverse(c)
    n, lo, out = x.rows, 0, []
    for _, m in spectrum:
        cols = [c.nums[i * n + j] for i in range(n) for j in range(lo, lo + m)]
        prod = flat_matmul(cols, c_inv.nums[lo * n:(lo + m) * n], n, m, n)
        out.append(QMatrix._reduced(n, n, prod, c.den * c_inv.den))
        lo += m
    return out


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
    """Exact quiver of the (basic) image algebra, closed per eigen-summand.

    The e_i are central (see ``idempotents``), so e_i J e_j = J e_i e_j is 0
    for i != j and J e_i for i = j, and J e_i meets J^2 in J^2 e_i = (J e_i)^2:
    dim e_i (J/J^2) e_j is 0 off the diagonal and dim J e_i - dim J^2 e_i on it.

    Theorem: that is dim J(A_i) - dim J(A_i)^2 for the image algebra A_i of
    the summand (X_i, Y_i) of ``_summands``.  Proof: a -> a e_i maps A onto
    A e_i = e_i A e_i, which maps V into V_i and kills the other V_j.  So
    restricting to V_i (block i of C^-1 a e_i C) is an injective algebra
    map, sending e_i, X e_i, Y e_i to I, X_i, Y_i: its image is A_i.  For a
    central idempotent J(A e_i) = J e_i, and J^2 e_i = (J e_i)^2.

    Theorem: for a pair with rational spectrum, J = YA + S(X)A, S = prod
    of (t - lambda), and J^2 is the right ideal of the products g h, g, h
    in {Y, S(X)}: no left product is formed.  (It rests on the normality
    of Y and on (b); the ideal of a general g is not gA, see
    ``ideal_codim``.)  Proof:
    (a) AY = YA.  XY = Y(X + Y) and YX = (X - Y)Y, so by induction on word
        length every word w has wY in YA and Yw in AY.
    (b) A word with a letter Y lies in AYA = YA by (a), so A = k[X] + YA;
        with k[X] S(X) = S(X) k[X], I = YA + S(X)A is a two-sided ideal.
        The chi_i of ``radical_basis`` kill Y and S(X), so I lies in J; S
        has degree r, so A is spanned by I and 1, X, ..., X^(r-1), and
        dim I >= dim A - r = dim J.  So I = J.
    (c) J^2 = YJ + S(X)J, since J J = Y(AJ) + S(X)(AJ) and AJ = J.
    So J(A_i) is the right ideal of {Y_i, X_i - lambda_i}.  With one
    eigenvalue A_1 = A and dim J = dim A - 1, so only J^2 is closed.
    """
    spectrum = rational_spectrum(a.rep.X)
    loops = []
    for (lam, m), pair in zip(spectrum, _summands(a.rep, spectrum)[1]):
        gens = [content_free(pair.Y.nums), content_free(_shifted(pair.X, lam))]
        rad = _right_ideal(pair, gens).rank if len(spectrum) > 1 else a.dim - 1
        loops.append(rad - _right_ideal(
            pair, [flat_matmul(g, h, m, m, m) for g in gens for h in gens]).rank)
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
    the transposed echelon rows of M's span, so the reduced rows of M are
    never formed.  Transposition keeps dimensions.
    """
    rep, n = a.rep, a.rep.n
    images = [content_free(evaluate(g, rep).nums) for g in gens]
    right = _right_ideal(rep, images)
    # Transposition keeps the stored form: the same numerators over the same den.
    flipped = RepPair._proved(QMatrix._of(n, n, _transposed(rep.X.nums, n), rep.X.den),
                              -QMatrix._of(n, n, _transposed(rep.Y.nums, n), rep.Y.den))
    return a.dim - _right_ideal(flipped, [_transposed(row, n) for row in right._rows]).rank


def _normal_monomials(max_degree: int) -> "list[tuple[int, int]]":
    """(k, m) of every y^k x^m with k + m <= max_degree, in the order of their
    keys ``_index(k, m)``: by degree, then by number of y's."""
    if max_degree < 0:
        raise OutOfRangeError(f"max_degree must be >= 0, got {max_degree}")
    return [_exponents(i) for i in range(_index(0, max_degree + 1))]


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
    den = lcm(*(m.den for m in images.values()))  # the columns over one denominator
    columns = [[v * (den // images[km].den) for v in images[km].nums] for km in monomials]
    n2 = rep.n * rep.n
    eval_matrix = QMatrix._reduced(n2, len(monomials),
                                   [columns[c][r] for r in range(n2)
                                    for c in range(len(monomials))], den)
    kernel = nullspace_basis(eval_matrix)
    return [NormalPoly({monomials[i]: v for i, v in enumerate(vec)})
            for vec in kernel]


def relation_coefficient_vector(poly: NormalPoly, max_degree: int) -> "tuple[Scalar, ...]":
    """Coefficients of a normal polynomial over the discover_relations basis
    order: the coefficient of y^k x^m at ``_index(k, m)``."""
    vec: list[Scalar] = [0] * len(_normal_monomials(max_degree))
    for (k, m), c in poly.items():
        if k + m > max_degree:
            raise ValueError(f"monomial y^{k} x^{m} exceeds degree bound {max_degree}")
        vec[_index(k, m)] = c
    return tuple(vec)
