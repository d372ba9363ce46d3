"""Dense univariate polynomials over the exact rationals.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial is the empty coefficient tuple.  Used for characteristic
polynomials, the nilpotent-part witness S(x), and the y-polynomials appearing
in automorphisms and the full-block canonical form.  ``rational_roots`` finds
a spectrum by an integer Newton descent, in time polynomial in the degree and
the coefficient bit length.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt

from .scalars import Scalar, exact, format_terms, primitive_integral


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots) -> "UniPoly":
        """Monic product of (t - r) over the given roots (with repetition)."""
        p = cls.one()
        for r in roots:
            p = p * cls((-exact(r), 1))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b != 0:
                        out[i + j] += a * b
            return UniPoly(out)
        c = exact(other)
        return UniPoly(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def __call__(self, value: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return exact(Fraction(acc))

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        lead = self.leading()
        if lead == 1:
            return self
        inv = Fraction(1, 1) / lead
        return UniPoly(tuple(c * inv for c in self.coeffs))

    def scale_argument(self, c) -> "UniPoly":
        """p(c*t) as a polynomial in t."""
        c = exact(c)
        power: Scalar = 1
        out = []
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * c
        return UniPoly(out)

    # -- division ----------------------------------------------------------

    def divmod(self, divisor: "UniPoly") -> "tuple[UniPoly, UniPoly]":
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = len(dcs) - 1
        lead = dcs[-1]
        qlen = len(rem) - dd
        if qlen <= 0:
            return UniPoly.zero(), self
        quo = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            top = rem[i + dd]
            if top == 0:
                continue
            q = exact(Fraction(top) / lead)
            quo[i] = q
            for j, dc in enumerate(dcs):
                rem[i + j] -= q * dc
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    # -- printing ----------------------------------------------------------

    def to_text(self, var: str = "t") -> str:
        return format_terms((var if k == 1 else f"{var}^{k}" if k else "1", c)
                            for k, c in reversed(list(enumerate(self.coeffs))) if c)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"


def poly_ext_gcd(a: UniPoly, b: UniPoly) -> "tuple[UniPoly, UniPoly, UniPoly]":
    """Monic g plus u, v with u*a + v*b = g."""
    r0, r1 = a, b
    u0, u1 = UniPoly.one(), UniPoly.zero()
    v0, v1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading()
    inv = exact(Fraction(1) / lead)
    return r0.monic(), u0 * inv, v0 * inv


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    return poly_ext_gcd(a, b)[0]


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.degree <= 0:
        return UniPoly.one()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def rational_roots(p: UniPoly) -> "list[tuple[Scalar, int]] | None":
    """All rational roots of p with multiplicities, sorted by value.

    Returns None when p does not split into linear factors over the
    rationals (some eigenvalue would live in a proper extension field).
    The cost is polynomial in the degree and the coefficient bit length.

    Method: integer Newton descent from above.  Let f be the primitive
    integer multiple of p, of degree n with leading coefficient L.  The
    monic integer polynomial g(t) = L^(n-1) f(t/L) has the roots a_i = L*r_i,
    so p splits over Q iff g splits into integer roots.  Newton's identity
    gives sum(a_i^2) = g_(n-1)^2 - 2*g_(n-2), so the start x = isqrt of that
    sum, plus 1, lies above every |a_i|.

    Proof that a split g is found.  Let g = prod (t - a_i)^m_i and let the
    integer x lie above its largest root, at distance D.  Then g(x) > 0,
    g'(x) > 0 and g/g' = 1/sum(m_i/(x - a_i)) lies in [D/n, D], so the step
    x -= ceil(g(x)/g'(x)) never passes that root and shrinks D to at most
    (1 - 1/n)*D.  x never rises and every root exceeds -x0 for the start
    x0, so D < 2*x0 throughout; as (1 - 1/n)^n < 1/2, each distinct root is
    reached within n*bitlen(2*x0) steps.  There
    g(x) = 0; the Horner pass that evaluated g(x) left the quotient by
    t - x (synthetic division), which replaces g, and the descent goes on
    from the same x, one more pass per multiplicity.  So a split g never
    meets g(x) < 0 or g'(x) <= 0 and ends within n*(n*bitlen(2*x0) + 2)
    passes: a negative sum of squares, either sign failure or an exhausted
    budget proves that g does not split.  Every root returned was divided
    out with remainder 0, so it is exact.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    f = primitive_integral(p.coeffs)
    n, lead = len(f) - 1, f[-1]
    # g with its highest coefficient first, for Horner's rule.
    g = [1] + [f[k] * lead ** (n - 1 - k) for k in range(n - 1, -1, -1)]
    square_sum = g[1] ** 2 - (2 * g[2] if n > 1 else 0)
    if square_sum < 0:
        return None
    x = isqrt(square_sum) + 1
    budget = n * (n * (2 * x).bit_length() + 2)
    roots = Counter()
    while len(g) > 1:
        if budget == 0:
            return None
        budget -= 1
        # One Horner pass: value = g(x), quotient = the quotient of g by
        # t - x, and slope = that quotient at x, which is g'(x).
        quotient, value, slope = [], 0, 0
        for c in g:
            slope = slope * x + value
            value = value * x + c
            quotient.append(value)
        if value == 0:
            roots[exact(Fraction(x, lead))] += 1
            g = quotient[:-1]
        elif value < 0 or slope <= 0:
            return None
        else:
            x += -value // slope
    return sorted(roots.items())
