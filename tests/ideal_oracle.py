"""Cross-check for ``jordanlab.imagealg.ideal_codim``, used only by the tests.

The library closes the two-sided ideal AgA by one right closure and one
transposed right closure.  The oracle closes it as one right ideal instead:
AgA is the sum of the right ideals (b g)A over a basis b of A, so its seeds
are all dim A products b g per generator.
"""

from __future__ import annotations

from jordanlab.imagealg import ImageAlgebra, _right_ideal
from jordanlab.matrices import flat_matmul
from jordanlab.reps import evaluate
from jordanlab.scalars import primitive_integral


def ideal_codim_by_products(a: ImageAlgebra, gens) -> int:
    """dim A minus the rank of the right ideal of every product b g."""
    n = a.rep.n
    images = [primitive_integral(evaluate(g, a.rep).entries) for g in gens]
    span = _right_ideal(a.rep, [flat_matmul(b, g, n, n, n) for g in images for b in a.rows])
    return a.dim - span.rank
