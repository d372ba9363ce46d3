"""Cross-check machinery for the fiber basis, used only by the tests.

The library writes the centralizer of a nilpotent Jordan matrix down in
closed form (see ``jordanlab.reps.fiber_basis``).  The tests solve for it
instead, as the kernel of the vectorized Sylvester operator, and check the
block-Toeplitz shape of every basis element entry by entry.
"""

from __future__ import annotations

from jordanlab import Partition, QMatrix


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
