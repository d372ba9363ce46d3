"""Dense exact-rational matrices and the elimination kernel.

All arithmetic is exact, and the hot loops run on plain integers.  A
``QMatrix`` stores int numerators over one denominator (proved canonical
in its docstring) and forms its ``Fraction`` entries only when they are
read.  There is one product kernel, ``_product``: it chains the factors'
numerators in one flat integer kernel (``flat_matmul``) and reduces the
result by one gcd.  ``@`` and every change of basis (``reps.conjugate``,
the eigen-summands and eigenprojections of ``imagealg``) multiply through
it; ``poly_at_matrix`` runs Horner's rule on integers in the same way, and
``sampling.rand_rep`` conjugates its integer factors in it.  So no
``Fraction`` arithmetic happens inside a product, a span or a spectral
split.

There is one elimination routine, ``SpanBuilder``:
a fraction-free integral echelon form kept with primitive rows and positive
pivots.  Each elimination step divides the pivot entry and the factor by
their gcd before it scales, and a vector's content is divided out once,
after its last step (proofs in ``_reduce`` and ``add``).  ``add`` does no
back-substitution; the reduced form is formed only when ``rows`` is read.
``rank`` reads the echelon form; ``nullspace_basis``, ``solve`` and
``inverse`` read the reduced rows, which are unique (proof in the
``SpanBuilder`` docstring), so their results do not depend on the
elimination order.  The test suite checks them against sympy.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InputFormatError, NonSquareError, SingularMatrixError, SizeMismatchError
from .polynomials import UniPoly
from .scalars import (
    Scalar,
    _Record,
    _set,
    cleared,
    content_free,
    exact,
    parse_scalar,
    scalar_str,
)


class QMatrix(_Record):
    """An exact rational rows x cols matrix.

    Stored form: ``nums``, the row-major tuple of int numerators, over one
    denominator ``den >= 1`` with gcd(content, den) = 1, content being the
    gcd of the nums (so zero has den = 1).  It is canonical, as the
    ``freealg.NormalPoly`` form is: entry k has the reduced denominator
    den/g_k, g_k = gcd(nums_k, den), and for each prime p the largest power
    of p among these is v_p(den) - min_k v_p(g_k) = v_p(den), as gcd_k g_k
    = gcd(content, den) = 1.  So den is the lcm of the reduced denominators
    and nums_k = den * entry_k: (nums, den) is what ``cleared`` makes of
    the entries, and ``==`` and ``hash`` compare (rows, cols, nums, den).

    ``entries``, the row-major exact scalars, is what the public
    constructor coerces through ``exact`` and keeps; ``_of`` and
    ``_reduced`` take numerators, and ``entries`` is formed on first read.
    repr, pickling, ``str`` and JSON read the record (rows, cols, entries).
    """

    __slots__ = ("rows", "cols", "nums", "den", "_entries")
    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        ents = tuple(exact(v) for v in self._entries)
        if len(ents) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        nums, den = cleared(ents)
        _set(self, "_entries", ents)
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)

    @classmethod
    def _of(cls, rows: int, cols: int, nums: tuple, den: int) -> "QMatrix":
        """The matrix nums/den, for numerators and a denominator already in
        the stored form."""
        m = cls.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "nums", nums)
        _set(m, "den", den)
        _set(m, "_entries", None)
        return m

    @classmethod
    def _reduced(cls, rows: int, cols: int, nums, den: int) -> "QMatrix":
        """The matrix nums/den for int nums and den >= 1, put in the stored
        form by one gcd."""
        g = gcd(den, *nums)
        if g > 1:
            return cls._of(rows, cols, tuple(v // g for v in nums), den // g)
        return cls._of(rows, cols, tuple(nums), den)

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            _set(self, "_entries", _divided(self.nums, self.den))
        return self._entries

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows == other.rows and self.cols == other.cols
                    and self.den == other.den and self.nums == other.nums)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nums, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(v for r in rows for v in r))

    @classmethod
    def zeros(cls, rows: int, cols: "int | None" = None) -> "QMatrix":
        if cols is None:
            cols = rows
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, values) -> "QMatrix":
        vals = list(values)
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else 0 for i in range(n) for j in range(n)))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> "list[list[Scalar]]":
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.nums)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise NonSquareError("trace of a non-square matrix")
        return exact(Fraction(sum(self.nums[::self.cols + 1]), self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)  # the numerators summed over one denominator
        s, t = den // self.den, den // other.den
        return QMatrix._reduced(self.rows, self.cols,
                                [s * a + t * b for a, b in zip(self.nums, other.nums)], den)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + -other

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(self.rows, self.cols, tuple(-a for a in self.nums), self.den)

    def scale(self, c) -> "QMatrix":
        c = exact(c)
        return QMatrix._reduced(self.rows, self.cols, [c.numerator * a for a in self.nums],
                                self.den * c.denominator)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return _product(self, other)

    def _same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise SizeMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        cells = [[scalar_str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max((len(cells[i][j]) for i in range(self.rows)), default=0)
                  for j in range(self.cols)]
        return "\n".join(" ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


def flat_matmul(a, b, n: int, k: int, m: int) -> list:
    """The row-major n x m product of the row-major n x k and k x m entry
    sequences a and b; meant for integers, where it is exact and fast."""
    out = [0] * (n * m)
    for i in range(n):
        abase = i * k
        obase = i * m
        for t in range(k):
            av = a[abase + t]
            if av == 0:
                continue
            bbase = t * m
            if av == 1:
                for j in range(m):
                    bv = b[bbase + j]
                    if bv != 0:
                        out[obase + j] += bv
            else:
                for j in range(m):
                    bv = b[bbase + j]
                    if bv != 0:
                        out[obase + j] += av * bv
    return out


def _transposed(vec, n: int) -> tuple:
    """The row-major entries of the transpose of a row-major n x n matrix."""
    return tuple(v for i in range(n) for v in vec[i::n])


def _divided(values, d: int) -> tuple:
    """The exact scalars v/d; a Fraction is built only when d does not divide v."""
    if d == 1:
        return tuple(values)
    return tuple(v // d if v % d == 0 else Fraction(v, d) for v in values)


def _product(*factors: QMatrix) -> QMatrix:
    """The exact product of one or more matrices, left to right.

    Fraction-free: with each factor m_i = A_i/d_i in its stored form, the
    product is (A_1 ... A_k)/(d_1 ... d_k), so the integer products are
    chained in ``flat_matmul`` and one gcd puts the result in the stored
    form (``QMatrix._reduced``).
    """
    first = factors[0]
    rows, cols = first.rows, first.cols
    acc, d = first.nums, first.den
    for m in factors[1:]:
        if cols != m.rows:
            raise SizeMismatchError(f"cannot multiply {rows}x{cols} by {m.rows}x{m.cols}")
        acc = flat_matmul(acc, m.nums, rows, cols, m.cols)
        cols, d = m.cols, d * m.den
    return QMatrix._reduced(rows, cols, acc, d)


def block_diag(blocks) -> QMatrix:
    """Block-diagonal assembly of square matrices, in the given order."""
    blocks = list(blocks)
    n = sum(b.rows for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        if not b.is_square:
            raise NonSquareError("block_diag expects square blocks")
        for i in range(b.rows):
            row = out[off + i]
            for j in range(b.cols):
                row[off + j] = b[i, j]
        off += b.rows
    return QMatrix.from_rows(out) if blocks else QMatrix.zeros(0, 0)


def matrix_to_json(m: QMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[scalar_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)],
    }


def matrix_from_json(data: dict) -> QMatrix:
    """Inverse of ``matrix_to_json``; InputFormatError on a bad shape or type."""
    if not isinstance(data, dict) or any(type(data.get(k)) is not int for k in ("rows", "cols")):
        raise InputFormatError('a matrix must be an object with integer "rows" and "cols"')
    return parse_matrix(data.get("entries"), data["rows"], data["cols"], "entries")


def parse_matrix(data, rows: int, cols: int, key: str) -> QMatrix:
    """The matrix held by ``data``, a JSON list of ``rows`` lists of ``cols``
    rational strings (grammar of ``parse_scalar``); InputFormatError naming
    ``key`` otherwise.  This is the one reader of matrix text."""
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in data)):
        raise InputFormatError(f"{key!r} must be a list of {rows} lists of {cols} entries")
    entries = []
    for row in data:
        for v in row:
            if not isinstance(v, str):
                import json
                raise InputFormatError(
                    f"entries of {key!r} must be rational strings, got {json.dumps(v)}")
            try:
                entries.append(parse_scalar(v))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"bad entry {v!r} in {key!r}") from exc
    return QMatrix(rows, cols, tuple(entries))


# -- elimination kernel ----------------------------------------------------


def int_normalized(m: QMatrix) -> QMatrix:
    """The positive multiple of m with coprime integer entries.

    Span computations may replace any element by a nonzero multiple; doing
    so keeps span arithmetic integral and small.
    """
    return QMatrix._of(m.rows, m.cols, tuple(content_free(m.nums)), 1)


class SpanBuilder(_Record):
    """Incrementally maintained integral echelon form of a span.

    This is the package's only elimination routine: ``rank``,
    ``nullspace_basis``, ``solve`` and ``inverse`` read their answers off
    the span of a matrix's rows.  Invariant: the stored rows ``_rows`` are
    primitive integer vectors (coprime entries) sorted by pivot column, each
    zero before its own pivot and positive at it.  The rank, ``_reduce`` and
    ``add`` need no more; ``rows`` makes the reduced form from it on the
    first read after an ``add`` (``_back_substitute``), so a caller that
    reads only ranks never forms it.

    Canonical form.  A nonzero combination of the rows leads at the pivot
    of its first row with a nonzero coefficient, so the pivots are the
    positions at which nonzero vectors of the span V lead, and the only
    vector of V zero at every pivot is 0.  The reduced rows are zero at
    every other row's pivot; divided by their pivot entries they are the
    reduced row-echelon form (RREF) of V, which is unique: the row with
    pivot p is the only vector of V with 1 at p and 0 at the other pivots.
    A nonzero rational vector has exactly one positive multiple that is a
    primitive integer vector, so the integral rows are unique too.  Hence
    ``rows`` and ``pivots`` depend only on the span, not on which vectors
    were added or in what order, and neither does anything read off them:
    the rank, the kernel basis, the inverse, and the solution with free
    variables set to 0.

    ``add`` keeps the invariant: the new vector is reduced against every
    row, made primitive with a positive leading entry and inserted at its
    pivot; no other row changes.  Rows are replaced or inserted, never
    mutated in place, so a copy ``SpanBuilder(length, list(rows),
    list(pivots))`` is an independent span, and a row ``add`` returned is
    never changed by a later ``add`` or read.
    """

    # _rows: integer rows, pivot-sorted; pivots: pivot column of each row;
    # _rref: whether _rows are reduced (no add since the last read).
    __slots__ = ("length", "_rows", "pivots", "_rref")
    _fields = ("length", "rows", "pivots")
    __hash__ = None

    def __init__(self, length: int, rows: "list | None" = None, pivots: "list | None" = None):
        _set(self, "length", length)
        _set(self, "_rows", [] if rows is None else rows)
        _set(self, "pivots", [] if pivots is None else pivots)
        _set(self, "_rref", False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list:
        """The integral reduced rows, formed on the first read after an ``add``."""
        if not self._rref:
            self._back_substitute()
        return self._rows

    def _back_substitute(self) -> None:
        """Make every row zero at every other row's pivot, bottom-up.

        Row i is zero at the pivots above it, which come before its own.
        The rows below it are already reduced, each zero at every pivot but
        its own, so the ``_reduce`` of row i against them zeroes it at their
        pivots and only scales its entries at the other pivots, by pv/g > 0:
        its own pivot entry stays positive, and its content is divided out
        once.  So the rows end as the canonical RREF of the class docstring;
        a row already reduced stays the same object.
        """
        rows, pivots = self._rows, self.pivots
        for i in range(len(rows) - 2, -1, -1):
            rows[i] = _reduce(rows[i], rows[i + 1:], pivots[i + 1:])
        _set(self, "_rref", True)

    def contains(self, vec) -> bool:
        return not any(_reduce(cleared(vec)[0], self._rows, self.pivots))

    def add(self, vec) -> "list[int] | None":
        """Insert a rational vector; the row stored for it if it enlarged
        the span, else None.

        A nonzero multiple of vec spans the same line, so its denominators
        are cleared first (``cleared`` copies vec, so the span never holds
        the caller's list).  The stored row is the ``_reduce`` of vec, with
        its sign flipped if the leading entry is negative: beta*vec + s for
        a rational beta != 0 and some s in the span before.  It is returned
        as the span holds it, a nonempty and so truthy list; the caller must
        not mutate it.

        That row is the primitive, positive-led multiple of the one vector
        of vec + V zero at every pivot (two such differ by a vector of V
        zero at every pivot, which is 0), whatever form the rows are kept
        in: a span kept reduced stores the same row.
        """
        work = _reduce(cleared(vec)[0], self._rows, self.pivots)
        lead = next(filter(None, work), 0)
        if not lead:
            return None
        pivot = work.index(lead)  # every entry before the first nonzero is 0
        if lead < 0:
            work = [-v for v in work]
        at = bisect(self.pivots, pivot)
        self._rows.insert(at, work)
        self.pivots.insert(at, pivot)
        _set(self, "_rref", False)
        return work

    def basis_vectors(self) -> "list[tuple[Scalar, ...]]":
        """The RREF rows (unit pivots) as exact scalar tuples."""
        return [_divided(row, row[p]) for row, p in zip(self.rows, self.pivots)]


def _reduce(vec: "list[int]", rows, pivots) -> "list[int]":
    """The integer vector vec reduced to zero at the pivots of the given
    rows (``SpanBuilder``'s invariant), made primitive.

    Against the row with pivot p and pivot entry pv > 0, where
    f = vec[p] != 0, the step is vec <- (pv/g)*vec - (f/g)*row with
    g = gcd(pv, f); when pv divides f, pv/g = 1 and vec is not scaled.
    (a) The step is integral: g divides pv and f.
    (b) It zeroes entry p, as (pv/g)*f - (f/g)*pv = 0, and only scales the
        entries before p by pv/g, as the row is zero there; so, in pivot
        order, no step undoes an earlier one and vec ends zero at every
        pivot.  The rows need only be in echelon form: a step may change
        entries at later pivots, which later steps zero.
    (c) It is pv/g > 0 times the rational step vec - (f/pv)*row, and
        scaling vec by c > 0 scales f by c; so by induction vec stays a
        positive multiple of the rationally reduced vector.
    A nonzero rational vector has exactly one positive multiple that is a
    primitive integer vector, so dividing out the content once, at the
    end, gives the same row as dividing it out after every step, and no
    factor is multiplied in only to be divided out again.
    """
    for row, p in zip(rows, pivots):
        f = vec[p]
        if f:
            pv = row[p]
            g = gcd(pv, f)
            if g == pv:
                f //= g
                vec = [a - f * b for a, b in zip(vec, row)]
            else:
                pv //= g
                f //= g
                vec = [pv * a - f * b for a, b in zip(vec, row)]
    return content_free(vec)


def _echelon(rows, length: int) -> SpanBuilder:
    """The span of the given rows, each of that length, in integral echelon
    form; its RREF is formed only if its ``rows`` are read."""
    span = SpanBuilder(length)
    for row in rows:
        span.add(row)
    return span


def _num_rows(m: QMatrix):
    """The rows of the integer matrix den*m, which span the row space of m."""
    c = m.cols
    return (m.nums[i * c:(i + 1) * c] for i in range(m.rows))


def rank(m: QMatrix) -> int:
    """Rank over the rationals."""
    return _echelon(_num_rows(m), m.cols).rank


def nullspace_basis(m: QMatrix) -> "list[tuple[Scalar, ...]]":
    """Canonical (reduced-echelon) basis of the right kernel."""
    basis, den = _kernel(_num_rows(m), m.cols)
    return [_divided(vec, den) for vec in basis]


def _kernel(rows, length: int) -> "tuple[list[list[int]], int]":
    """The canonical kernel basis of the matrix with the given integer rows,
    as integer vectors over one denominator d, the lcm of the pivot entries
    of its reduced rows.  The vector of free column f is 1 at f and
    -row[f]/row[c] at the pivot c of each reduced row, 0 elsewhere."""
    span = _echelon(rows, length)
    den = lcm(*(row[c] for row, c in zip(span.rows, span.pivots)))
    basis = []
    for free in sorted(set(range(length)) - set(span.pivots)):
        vec = [0] * length
        vec[free] = den
        for row, c in zip(span.rows, span.pivots):
            vec[c] = -row[free] * (den // row[c])
        basis.append(vec)
    return basis, den


def solve(m: QMatrix, rhs) -> "tuple[Scalar, ...] | None":
    """One exact solution of m*x = rhs (free variables set to 0), or None."""
    b = list(rhs)
    if len(b) != m.rows:
        raise SizeMismatchError("right-hand side length does not match rows")
    n = m.cols
    span = _echelon(([*row, v * m.den] for row, v in zip(_num_rows(m), b)), n + 1)
    if span.pivots and span.pivots[-1] == n:
        return None  # inconsistent system
    vec: list[Scalar] = [0] * n
    for row, c in zip(span.rows, span.pivots):
        if row[n]:
            vec[c] = exact(Fraction(row[n], row[c]))
    return tuple(vec)


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse, read off the RREF of [m | I]; raises SingularMatrixError
    if m is singular."""
    if not m.is_square:
        raise NonSquareError("inverse of a non-square matrix")
    n, d = m.rows, m.den
    # Row i is d times row i of [m | I], an integer row with the same span.
    span = _echelon(([*row] + [d if j == i else 0 for j in range(n)]
                     for i, row in enumerate(_num_rows(m))), 2 * n)
    if span.pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    # Row i of the reduced rows is its pivot entry p_i times [e_i | row i of m^-1].
    den = lcm(*(row[i] for i, row in enumerate(span.rows)))
    return QMatrix._reduced(n, n, [v * (den // row[i]) for i, row in enumerate(span.rows)
                                   for v in row[n:]], den)


def char_poly(m: QMatrix) -> UniPoly:
    """Monic characteristic polynomial det(tI - m), by Newton's identities
    on the power sums p_k = tr(A^k) of the integer A = d*m (stored form).

    a_0 = 1, k a_k = -(a_(k-1) p_1 + ... + a_0 p_k) give det(tI - A) =
    sum a_k t^(n-k); each division is exact, as a_k is (-1)^k times the sum
    of the k x k principal minors of A.  det(tI - m) = d^-n det(dtI - A),
    so its t^(n-k) coefficient is a_k/d^k.  Baby steps A^2..A^s, s =
    ceil(sqrt(n)), and giant steps A^(2s)..A^(gs), g = floor((n-1)/s), give
    every k <= n as i + js (1 <= i <= s, 0 <= j <= g), and tr(A^i A^(js))
    is the dot product of A^i with the transpose of A^(js): s - 1 +
    max(0, g - 1) products where Faddeev-LeVerrier makes n (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 1973).
    """
    if not m.is_square:
        raise NonSquareError("characteristic polynomial of a non-square matrix")
    n, d = m.rows, m.den
    s = isqrt(n - 1) + 1 if n else 0
    baby = [m.nums]  # A^1, ..., A^s
    while len(baby) < s:
        baby.append(flat_matmul(baby[-1], m.nums, n, n, n))
    sums, giant = [sum(b[::n + 1]) for b in baby], baby[-1]  # sums[k - 1] = p_k
    while len(sums) < n:
        if len(sums) > s:
            giant = flat_matmul(giant, baby[-1], n, n, n)
        flipped = _transposed(giant, n)
        sums += [sum(map(mul, b, flipped)) for b in baby[:n - len(sums)]]
    a = [1]
    for k in range(1, n + 1):
        a.append(-sum(map(mul, a[::-1], sums)) // k)
    return UniPoly(Fraction(v, d ** k) for k, v in reversed(list(enumerate(a))))


def poly_at_matrix(p: UniPoly, m: QMatrix) -> QMatrix:
    """Evaluate a univariate polynomial at a square matrix, by Horner's rule
    on integers that steps over each run of zero coefficients at once.

    Write p = P/c (``cleared``) and m = M/e (its stored form), and let
    D = deg p.  Then c*e^D*p(m) = sum_k P_k e^D (M/e)^k = Q(M) for the
    integer polynomial Q with coefficients Q_k = P_k*e^(D-k).  So Q(M) is
    formed on integers only (``_horner``), and p(m) = Q(M)/(c*e^D) needs
    one gcd.
    """
    if not m.is_square:
        raise NonSquareError("polynomial of a non-square matrix")
    n = m.rows
    if p.is_zero():
        return QMatrix.zeros(n)
    coeffs, c = cleared(p.coeffs)
    out = _horner(coeffs, m.den, p.degree, {1: m.nums}, n)
    return QMatrix._reduced(n, n, out, c * m.den ** p.degree)


def _horner(coeffs: "list[int]", e: int, deg: int, powers: dict, n: int) -> "list[int]":
    """Q(M) = sum_k Q_k M^k, Q_k = coeffs[k]*e^(deg-k), for int coeffs, not
    all 0, with len(coeffs) <= deg + 1; row-major, on integers only.
    ``powers`` maps g to M^g for the integer n x n M, at least M^1; each
    power formed here is added to it, so callers that share it
    (``reps.evaluate``, one per row in Y) form each power once.

    Let k_0 > k_1 > ... > k_r be the k with Q_k != 0.  Horner's rule
    R_0 = Q_(k_0), R_i = R_(i-1) M^(k_(i-1) - k_i) + Q_(k_i) I and Q(M) =
    R_r M^(k_r) gives R_i = sum_(j<=i) Q_(k_j) M^(k_j - k_i) by induction:
    it is plain Horner with each run of g - 1 zero coefficients folded
    into one step, since those g steps multiply by M and add 0.  R_0 is a
    scalar, so its first step scales a power.  Each power M^g is formed by
    repeated squaring from the squares M^(2^s).  A power not yet formed
    costs at most floor(log2 g) squarings and popcount(g) - 1 products,
    which is at most g - 1 (checked directly for g < 8; for g >= 8 it is
    at most 2 log2 g <= g - 1), so a gap of g costs at most g products:
    never more than the k_0 products of plain Horner, and at most
    2 log2 k_0 for t^(k_0).
    """
    top = max(k for k, v in enumerate(coeffs) if v)
    lead = coeffs[top] * e ** (deg - top)

    def times_power(out, g: int) -> "list[int]":  # out M^g; None stands for R_0
        if out is None:
            return [lead * v for v in _power(powers, g, n)]
        return flat_matmul(out, _power(powers, g, n), n, n, n)

    out = None
    for k in range(top - 1, -1, -1):
        if coeffs[k]:
            out = times_power(out, top - k)
            q = coeffs[k] * e ** (deg - k)
            for i in range(0, n * n, n + 1):
                out[i] += q
            top = k
    if top:
        out = times_power(out, top)
    elif out is None:  # a constant
        out = [lead if i % (n + 1) == 0 else 0 for i in range(n * n)]
    return out


def _power(powers: dict, g: int, n: int) -> "list[int]":
    """M^g for g >= 1, by repeated squaring in the power table ``powers``
    of the integer n x n M (see ``_horner``), which keeps every power it
    forms: at most floor(log2 g) squarings and popcount(g) - 1 products."""
    if g not in powers:
        for s in range(1, g.bit_length()):
            if 1 << s not in powers:
                half = powers[1 << (s - 1)]
                powers[1 << s] = flat_matmul(half, half, n, n, n)
        powers[g] = reduce(lambda a, b: flat_matmul(a, b, n, n, n),
                           [powers[1 << s] for s in range(g.bit_length()) if g >> s & 1])
    return powers[g]


def nilpotency_index(m: QMatrix) -> "int | None":
    """Least p with m^p = 0, or None if m^n != 0 (not nilpotent)."""
    if not m.is_square:
        raise NonSquareError("nilpotency of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    power = m
    for idx in range(1, n + 1):
        if power.is_zero():
            return idx
        power = power @ m
    return None


def is_nilpotent(m: QMatrix) -> bool:
    """Whether some power of m is zero (``nilpotency_index``)."""
    return nilpotency_index(m) is not None
