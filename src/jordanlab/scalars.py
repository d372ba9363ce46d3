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
from math import gcd, lcm, log10

from .errors import OutOfRangeError

Scalar = int | Fraction

_set = object.__setattr__


class _Record:
    """Base of the package's records: the fields named in ``_fields``, set
    once by ``__init__`` (this one, in ``_fields`` order, or a subclass's
    own through ``_set``) and never reassigned.

    Records of one class are equal when their field tuples are equal (a
    record of another class is NotImplemented); a record hashes its field
    tuple, prints as ``Name(field=value, ...)``, pickles through its
    constructor and raises AttributeError on any assignment.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    """Text form 'p' or 'p/q'; round-trips bit-exactly through parse_scalar.

    A number with more digits than the interpreter converts to text (4300
    by default, ``sys.get_int_max_str_digits``) is an OutOfRangeError.
    """
    try:
        return str(value)
    except ValueError:
        bits = max(abs(value.numerator), value.denominator).bit_length()
        digits = int(bits * log10(2)) + 1
        raise OutOfRangeError(f"a number of about {digits} digits is too long to print") from None


def format_terms(terms) -> str:
    """The signed sum of (monomial text, nonzero coefficient) pairs, in order.

    A term prints as the magnitude of its coefficient times its monomial,
    leaving out a factor 1 and the monomial "1"; the first term carries a
    sign only when negative, and the empty sum is "0".  ``NcPoly``,
    ``NormalPoly`` and ``UniPoly`` all print through here.
    """
    out = []
    for body, coeff in terms:
        mag = scalar_str(abs(coeff))
        if out:
            out.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            out.append("-")
        out.append(mag if body == "1" else body if mag == "1" else f"{mag}*{body}")
    return "".join(out) or "0"


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


def cleared(values) -> "tuple[list[int], int]":
    """Integers P and the least d >= 1 with values = P / d, entrywise.

    d is the lcm of the denominators; an all-integer input comes back as a
    list of the same integers with d = 1.  ``QMatrix`` stores its entries
    in this form; Horner's rule, the span kernel and ``primitive_integral``
    clear their input here.
    """
    vec = list(values)
    dens = [v.denominator for v in vec if type(v) is not int]
    if not dens:
        return vec, 1
    d = lcm(*dens)
    return [v * d if type(v) is int else v.numerator * (d // v.denominator)
            for v in vec], d


def primitive_integral(values) -> "list[int]":
    """The positive multiple of a rational vector with coprime integer entries.

    Clears the denominators (``cleared``), then divides by the gcd of the
    entries; the zero vector stays zero.
    """
    return content_free(cleared(values)[0])


def content_free(vec: "list[int]") -> "list[int]":
    """An integer vector divided by the gcd of its entries (its content).

    The gcd-only half of ``primitive_integral``, for vectors already known
    to be integral; the zero vector stays zero.
    """
    g = gcd(*vec)
    return [v // g for v in vec] if g > 1 else vec
