"""Dense univariate polynomials over the exact rationals.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial is the empty coefficient tuple.  Used for characteristic
polynomials, the nilpotent-part witness S(x), and the y-polynomials appearing
in automorphisms and the full-block canonical form.
"""

from __future__ import annotations

from fractions import Fraction

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


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.degree <= 0:
        return UniPoly.one()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def _divisors(n: int) -> "list[int]":
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly) -> "list[tuple[Scalar, int]] | None":
    """All rational roots of p with multiplicities, sorted by value.

    Returns None when p does not split into linear factors over the
    rationals (some eigenvalue would live in a proper extension field).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    # Roots of the squarefree part, each once; multiplicities recovered after.
    sf = squarefree_part(p)
    # Factor out t^k so the constant term of the remaining factor is nonzero.
    k0 = 0
    while sf[k0] == 0:
        k0 += 1
    roots: list[Scalar] = [0] * (1 if k0 else 0)
    reduced = UniPoly(sf.coeffs[k0:])
    if reduced.degree > 0:
        ics = primitive_integral(reduced.coeffs)
        lead, const = ics[-1], ics[0]
        seen = set()
        for q in _divisors(lead):
            for pnum in _divisors(const):
                for sign in (1, -1):
                    cand = exact(Fraction(sign * pnum, q))
                    if cand in seen:
                        continue
                    seen.add(cand)
                    if reduced(cand) == 0:
                        roots.append(cand)
    if len(roots) < sf.degree:
        return None
    # Multiplicities by repeated exact division of the original polynomial.
    result = []
    rest = p
    for r in sorted(roots):
        lin = UniPoly((-r, 1))
        mult = 0
        while True:
            q, rem = rest.divmod(lin)
            if not rem.is_zero():
                break
            rest = q
            mult += 1
        result.append((r, mult))
    return result
