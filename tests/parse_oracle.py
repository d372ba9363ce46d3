"""The recursive-descent polynomial parser, used only by the tests.

``jordanlab.freealg.parse_poly`` reads the polynomial grammar with one term
pattern matched left to right.  This is the tokenizer and recursive descent
it replaced, kept verbatim as the reference for the differential test in
tests/test_freealg.py: on every string both must give the same ``NcPoly``,
or both ``PolyParseError``.  The one intended difference is a number with
more digits than ``int()`` converts, which raises ``ValueError`` here and
``PolyParseError`` in the library.
"""

from __future__ import annotations

import re
from fractions import Fraction

from jordanlab import NcPoly, PolyParseError, Scalar, exact

X, Y = "x", "y"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z])|([*^+/-]))")


def parse_poly(text: str) -> NcPoly:
    """Parse the polynomial grammar, e.g. "x^2*y - 2*y^2*x" or "3/2*x + 1"."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character {text[pos:].lstrip()[0]!r}")
            break
        if m.group(1):
            tokens.append(("num", m.group(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None)

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def parse_rational() -> Scalar:
        kind, val = take()
        if kind != "num":
            raise PolyParseError("expected a number")
        num = int(val)
        if peek() == ("op", "/"):
            take()
            kind, val = take()
            if kind != "num":
                raise PolyParseError("expected a denominator")
            den = int(val)
            if den == 0:
                raise PolyParseError("zero denominator")
            return exact(Fraction(num, den))
        return num

    def parse_factor() -> str:
        kind, val = take()
        if kind != "name" or val not in (X, Y):
            raise PolyParseError(f"expected variable x or y, got {val!r}")
        if peek() == ("op", "^"):
            take()
            kind2, val2 = take()
            if kind2 != "num" or int(val2) < 1:
                raise PolyParseError("exponent must be a positive integer")
            return val * int(val2)
        return val

    def parse_term() -> "tuple[Scalar, str]":
        coeff: Scalar = 1
        word = ""
        if peek()[0] == "num":
            coeff = parse_rational()
            if peek() == ("op", "*"):
                take()
            else:
                return coeff, ""  # bare rational constant term
        word += parse_factor()
        while peek() == ("op", "*"):
            take()
            word += parse_factor()
        return coeff, word

    terms = []
    sign = 1
    if peek() == ("op", "-"):
        take()
        sign = -1
    elif peek() == ("op", "+"):
        take()
    if peek()[0] is None:
        raise PolyParseError("empty polynomial")
    while True:
        coeff, word = parse_term()
        terms.append((word, sign * coeff))
        kind, val = peek()
        if kind is None:
            break
        if (kind, val) == ("op", "+"):
            sign = 1
        elif (kind, val) == ("op", "-"):
            sign = -1
        else:
            raise PolyParseError(f"unexpected token {val!r}")
        take()
    return NcPoly(terms)
