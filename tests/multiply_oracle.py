"""The termwise rational Ore product, used only by the tests.

``jordanlab.freealg.multiply`` sums the integer numerators of both operands
on int keys and divides by one gcd at the end.  This is the product it
replaced, the reference for the differential tests in tests/test_freealg.py
and tests/test_properties.py: it multiplies the rational coefficients
(``items()``) of every pair of terms, adds the raw products into one dict
keyed by (k, m) and hands it to the ``NormalPoly`` constructor.  It expands
x^b y^c by its own closed form, binomial times rising factorial, so it
shares no code with the library's expansion.
"""

from __future__ import annotations

from math import comb

from jordanlab import NormalPoly, Scalar


def x_power_times_y_power(b: int, c: int) -> "list[tuple[tuple[int, int], int]]":
    """x^b y^c = sum_j C(b, j) c(c+1)...(c+j-1) y^(c+j) x^(b-j), as
    ((k, m), coefficient) pairs; for c = 0 only j = 0 is nonzero."""
    out = []
    rising = 1
    for j in range(b + 1 if c else 1):
        out.append(((c + j, b - j), comb(b, j) * rising))
        rising *= c + j
    return out


def multiply(f: NormalPoly, g: NormalPoly) -> NormalPoly:
    """Product in the algebra, returned in normal form.

    Expands x^b y^c by the closed form termwise, adds the raw products
    into one dict and builds the polynomial from it once.
    """
    out: dict[tuple[int, int], Scalar] = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            coeff = cf * cg
            for (k, m), v in x_power_times_y_power(b, c):
                key = (a + k, m + d)
                out[key] = out.get(key, 0) + coeff * v
    return NormalPoly(out)
