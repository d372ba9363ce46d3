"""Cross-check for ``jordanlab.matrices.SpanBuilder``, used only by the tests.

The library keeps its rows in echelon form and forms the reduced rows only
when they are read.  The oracle is the span it replaced, kept verbatim: its
``add`` back-substitutes the new row into every stored row, so its rows
are the integral reduced row-echelon form after every add.  Both return
the same row from every ``add`` and read the same rows and pivots.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd

from jordanlab.scalars import cleared, content_free


class EagerSpan:
    """Integral reduced row-echelon form of a span, kept after every add:
    primitive rows sorted by pivot column, each positive at its own pivot
    and zero at every other row's pivot."""

    def __init__(self, length: int, rows: "list | None" = None, pivots: "list | None" = None):
        self.length = length
        self.rows = [] if rows is None else rows
        self.pivots = [] if pivots is None else pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: "list[int]") -> "list[int]":
        """vec made zero at every pivot by the gcd-scaled step, then primitive."""
        for row, p in zip(self.rows, self.pivots):
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

    def contains(self, vec) -> bool:
        return not any(self._reduce(cleared(vec)[0]))

    def add(self, vec) -> "list[int] | None":
        """Insert a rational vector and back-substitute it into every row
        nonzero at its pivot; the stored row if the span grew, else None."""
        work = self._reduce(cleared(vec)[0])
        lead = next(filter(None, work), 0)
        if not lead:
            return None
        pivot = work.index(lead)
        if lead < 0:
            work = [-v for v in work]
            lead = -lead
        for idx, row in enumerate(self.rows):
            f = row[pivot]
            if f:
                g = gcd(lead, f)
                scale, f = lead // g, f // g
                self.rows[idx] = content_free([scale * a - f * b for a, b in zip(row, work)])
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, work)
        self.pivots.insert(at, pivot)
        return work
