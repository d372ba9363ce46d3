"""Cross-check for ``jordanlab.matrices.QMatrix``, used only by the tests.

The library stores a matrix as int numerators over one denominator and
forms its ``Fraction`` entries only when they are read.  The oracle is the
``QMatrix`` it replaced, kept verbatim with its product kernel: a tuple of
exact scalars, coerced entry by entry through ``exact`` at construction,
each product clearing its factors (``cleared``) and dividing each result
entry once (``_divided``).
"""

from __future__ import annotations

from fractions import Fraction

from jordanlab.errors import NonSquareError, SizeMismatchError
from jordanlab.matrices import flat_matmul
from jordanlab.scalars import Scalar, _Record, _set, cleared, exact, scalar_str


class QMatrix(_Record):
    __slots__ = _fields = ("rows", "cols", "entries")  # entries: row-major, rows*cols

    def __init__(self, rows: int, cols: int, entries: tuple):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        ents = tuple(exact(v) for v in self.entries)
        if len(ents) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        _set(self, "entries", ents)

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
        return all(v == 0 for v in self.entries)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise NonSquareError("trace of a non-square matrix")
        return exact(Fraction(sum(self.entries[i * self.cols + i] for i in range(self.rows))))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(self.rows, self.cols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(self.rows, self.cols,
                       tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "QMatrix":
        c = exact(c)
        return QMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

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


def _divided(values: "list[int]", d: int) -> tuple:
    """The exact scalars v/d; a Fraction is built only when d does not divide v."""
    if d == 1:
        return tuple(values)
    return tuple(v // d if v % d == 0 else Fraction(v, d) for v in values)


def _product(*factors: QMatrix) -> QMatrix:
    """The exact product of one or more matrices, left to right.

    Fraction-free: with each factor m_i = A_i/d_i for integer A_i
    (``cleared``, once per factor), the product is (A_1 ... A_k)/(d_1 ...
    d_k) entry by entry, so the integer products are chained in
    ``flat_matmul`` and each result entry is divided once.
    """
    first = factors[0]
    rows, cols = first.rows, first.cols
    acc, d = cleared(first.entries)
    for m in factors[1:]:
        if cols != m.rows:
            raise SizeMismatchError(f"cannot multiply {rows}x{cols} by {m.rows}x{m.cols}")
        b, e = cleared(m.entries)
        acc = flat_matmul(acc, b, rows, cols, m.cols)
        cols, d = m.cols, d * e
    return QMatrix(rows, cols, _divided(acc, d))
