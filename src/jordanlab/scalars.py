"""Exact rational scalars.

Every number in this library is an exact rational: a plain ``int`` where the
value is integral, a ``fractions.Fraction`` in lowest terms otherwise.  The
two kinds mix freely in arithmetic and compare/hash consistently; keeping
integers as ``int`` makes the integer-heavy linear algebra much faster.
Floats are rejected everywhere -- there are no tolerances in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Scalar = int | Fraction


def exact(value: int | Fraction | str) -> Scalar:
    """Coerce to an exact scalar, collapsing integral fractions to int."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError("floats are not exact; use int, Fraction or 'p/q' text")
    if isinstance(value, str):
        return parse_scalar(value)
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def scalar_str(value: Scalar) -> str:
    """Text form 'p' or 'p/q'; round-trips bit-exactly through parse_scalar."""
    return str(value)


_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_scalar(text: str) -> Scalar:
    """The rational 'p' or 'p/q': an optional sign, ASCII digits and an optional
    '/digits', with whitespace around them.  Anything else is a ValueError (a
    zero denominator a ZeroDivisionError): the 9 bytes '1e1000000' would be a
    3.3-million-bit integer, so no decimal point or exponent is read."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational 'p' or 'p/q': {text!r}")
    num, den = match.groups()
    return int(num) if den is None else exact(Fraction(int(num), int(den)))


def primitive_integral(values) -> "list[int]":
    """The positive multiple of a rational vector with coprime integer entries.

    Multiplies by the lcm of the denominators, then divides by the gcd of
    the entries; the zero vector stays zero.  This is the one place where
    the package clears denominators.
    """
    vec = list(values)
    dens = [v.denominator for v in vec if type(v) is not int]
    if dens:
        d = lcm(*dens)
        vec = [int(v * d) for v in vec]
    g = gcd(*vec)
    if g > 1:
        vec = [v // g for v in vec]
    return vec
