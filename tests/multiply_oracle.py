"""The termwise rational Ore product, used only by the tests.

``jordanlab.freealg.multiply`` clears the denominators of both operands,
multiplies integers grouped by y-degree and divides once at the end.  This
is the product it replaced, kept verbatim as the reference for the
differential tests in tests/test_freealg.py and tests/test_properties.py:
it multiplies the rational coefficients of every pair of terms, adds the
raw products into one dict and normalizes it once with ``_nonzero``.
"""

from __future__ import annotations

from jordanlab import NormalPoly, Scalar
from jordanlab.freealg import _nonzero, _x_power_times_y_power


def multiply(f: NormalPoly, g: NormalPoly) -> NormalPoly:
    """Product in the algebra, returned in normal form.

    Expands x^b y^c by the Ore-extension closed form termwise, adds the
    raw products into one dict and normalizes it once.
    """
    out: dict[tuple[int, int], Scalar] = {}
    for (a, b), cf in f._terms.items():
        for (c, d), cg in g._terms.items():
            coeff = cf * cg
            for (k, m), v in _x_power_times_y_power(b, c):
                key = (a + k, m + d)
                out[key] = out.get(key, 0) + coeff * v
    return NormalPoly._of(_nonzero(out))
