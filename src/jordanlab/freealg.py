"""Free algebra on {x, y}, the Jordan-plane product and the rewriting engine.

Monomials are plain strings over the alphabet.  ``NcPoly`` (keyed by word)
and ``NormalPoly`` (keyed by (k, m) for y^k x^m) share one term-dictionary
core, ``_Terms``, which stores no zero terms and integral coefficients as
int.  The linear operations add raw sums into a plain dict and normalize
it once in ``_nonzero``.  Normal forms on the basis y^k x^m come from the
Ore-extension product ``multiply``: the algebra is k[y][x; y^2 d/dy] (see
``normal_form``).  ``multiply`` is fraction-free: it multiplies integers
and divides by one common denominator at the end, leaving the same stored
form.  The generic rewriting engine (deglex with x > y, the single rule
xy -> yx + y^2) remains for the overlap list of ``gb-check`` and as the
test oracle: tests/test_freealg.py::test_multiply_matches_engine checks
``multiply`` and ``normal_form`` against ``reduce_poly``.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial

from .errors import OutOfRangeError, PolyParseError
from .polynomials import UniPoly
from .scalars import Scalar, _Record, cleared, exact, format_terms

X, Y = "x", "y"
DEFAULT_ALPHABET = (Y, X)  # ascending: y < x


def deglex_key(word: str, ranks: "dict[str, int]"):
    """Sort key realizing degree-lexicographic order for the given ranks."""
    return (len(word), tuple(ranks[c] for c in word))


def _ranks(alphabet) -> "dict[str, int]":
    return {c: i for i, c in enumerate(alphabet)}


# -- noncommutative polynomials ---------------------------------------------


def _nonzero(terms: dict) -> dict:
    """The term dict without zero coefficients and with integral ones as int."""
    return {key: exact(c) for key, c in terms.items() if c}


class _Terms:
    """Shared core of ``NcPoly`` and ``NormalPoly``: a finite rational
    combination of keys.  Equality holds only within one class."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                key = self._key(key)
                data[key] = data.get(key, 0) + exact(coeff)
        self._terms = _nonzero(data)

    @staticmethod
    def _key(key):
        """The stored form of an input key."""
        return key

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a term dict that is already normalized, as ``_nonzero`` leaves it."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return self._of(_nonzero(out))

    def __neg__(self):
        return self._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = exact(c)
        return self._of(_nonzero({key: v * c for key, v in self._terms.items()}))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class NcPoly(_Terms):
    """Finite rational combination of words; no zero coefficients stored."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({"": 1})

    @classmethod
    def monomial(cls, word: str, coeff=1) -> "NcPoly":
        return cls({word: coeff})

    def items(self) -> "list[tuple[str, Scalar]]":
        ranks = _ranks(DEFAULT_ALPHABET)
        return sorted(self._terms.items(),
                      key=lambda kv: deglex_key(kv[0], ranks), reverse=True)

    def coefficient(self, word: str) -> Scalar:
        return self._terms.get(word, 0)

    @property
    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=-1)

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return self.scale(other)
        out: dict[str, Scalar] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return NcPoly._of(_nonzero(out))

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self) -> str:
        return format_terms((word_text(w), c) for w, c in self.items())


class NormalPoly(_Terms):
    """Polynomial on the normal basis y^k x^m, keyed by (k, m)."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> "tuple[int, int]":
        k, m = key
        return (k, m)

    @classmethod
    def one(cls) -> "NormalPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, k: int, m: int, coeff=1) -> "NormalPoly":
        return cls({(k, m): coeff})

    def items(self) -> "list[tuple[tuple[int, int], Scalar]]":
        # descending deglex: higher total degree first, then fewer y's first
        return sorted(self._terms.items(), key=lambda kv: (-sum(kv[0]), kv[0][0]))

    def coefficient(self, k: int, m: int) -> Scalar:
        return self._terms.get((k, m), 0)

    def support(self) -> "list[tuple[int, int]]":
        return [km for km, _ in self.items()]

    @property
    def degree(self) -> int:
        return max((k + m for k, m in self._terms), default=-1)

    def embed(self) -> NcPoly:
        """The same element as a word polynomial (y's before x's)."""
        return NcPoly({Y * k + X * m: c for (k, m), c in self._terms.items()})

    def __str__(self) -> str:
        return format_terms((word_text(Y * k + X * m), c) for (k, m), c in self.items())


# -- text form ---------------------------------------------------------------


def word_text(word: str) -> str:
    """A word as its runs, e.g. "x^2*y"; the empty word is "1"."""
    runs = ((letter, sum(1 for _ in run)) for letter, run in groupby(word))
    return "*".join(letter if e == 1 else f"{letter}^{e}" for letter, e in runs) or "1"


# One term of the polynomial grammar (README): an optional sign, then a
# rational with an optional "* factors" tail, or bare factors.
_FACTORS = r"[xy](?:\s*\^\s*\d+)?(?:\s*\*\s*[xy](?:\s*\^\s*\d+)?)*"
_TERM = re.compile(rf"\s*(?:([-+])\s*)?(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*({_FACTORS}))?"
                   rf"|({_FACTORS}))\s*")
_FACTOR = re.compile(r"([xy])(?:\s*\^\s*(\d+))?")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise PolyParseError(f"number of {len(digits)} digits is too long") from None


# The most letters the words of one parsed polynomial hold in all: it admits
# x^4096*y, and refuses "x^4000000000" before a 4 GB word is built.
MAX_LETTERS = 100_000


def parse_poly(text: str) -> NcPoly:
    """Parse the polynomial grammar, e.g. "x^2*y - 2*y^2*x" or "3/2*x + 1".

    The grammar has no nesting, so it is one term pattern matched from the
    left, each term after the first starting with its sign.  Words of more
    than MAX_LETTERS letters in all are a PolyParseError, checked before
    each run of letters is built.
    """
    terms = []
    pos = letters = 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        if m is None or (terms and not m[1]):
            raise PolyParseError(f"expected a {'signed ' if terms else ''}term at position {pos}")
        sign, num, den, tail, bare = m.groups()
        coeff = _int(num) if num else 1
        if den is not None:
            den = _int(den)
            if den == 0:
                raise PolyParseError("zero denominator")
            coeff = exact(Fraction(coeff, den))
        word = ""
        for letter, e in _FACTOR.findall(tail or bare or ""):
            e = _int(e) if e else 1
            if e < 1:
                raise PolyParseError("exponent must be a positive integer")
            letters += e
            if letters > MAX_LETTERS:
                raise PolyParseError(f"the words have more than {MAX_LETTERS} letters in all")
            word += letter * e
        terms.append((word, -coeff if sign == "-" else coeff))
        pos = m.end()
    return NcPoly(terms)


# -- rewriting ----------------------------------------------------------------


class RewriteSystem(_Record):
    """Rules lead -> tail with every tail monomial deglex-smaller than lead."""

    __slots__ = _fields = ("alphabet", "rules")  # rules: (lead word, tail NcPoly) pairs

    def __init__(self, alphabet: tuple, rules: tuple):
        super().__init__(alphabet, rules)
        ranks = _ranks(alphabet)
        for lead, tail in rules:
            if not lead or any(c not in ranks for c in lead):
                raise ValueError(f"bad leading monomial {lead!r}")
            lk = deglex_key(lead, ranks)
            for word, _ in tail.items():
                if any(c not in ranks for c in word):
                    raise ValueError(f"tail word {word!r} outside alphabet")
                if deglex_key(word, ranks) >= lk:
                    raise ValueError(
                        f"tail monomial {word!r} not smaller than lead {lead!r}")

    def ranks(self) -> "dict[str, int]":
        return _ranks(self.alphabet)

    def leftmost_match(self, word: str) -> "tuple[int, int] | None":
        """(position, rule index) of the leftmost redex, or None."""
        best = None
        for ridx, (lead, _) in enumerate(self.rules):
            pos = word.find(lead)
            if pos >= 0 and (best is None or pos < best[0]):
                best = (pos, ridx)
        return best


@lru_cache(maxsize=None)
def jordan_system() -> RewriteSystem:
    """The Jordan rewriting rule xy -> yx + y^2 under deglex with x > y."""
    return RewriteSystem(DEFAULT_ALPHABET, (("xy", NcPoly({"yx": 1, "yy": 1})),))


def reduce_poly(f: NcPoly, rs: RewriteSystem) -> NcPoly:
    """Rewrite f to a combination of normal words (leftmost strategy).

    Terminates because every rule replaces a word by strictly smaller words
    in the admissible order; like terms are merged eagerly so each distinct
    word is processed at most once.
    """
    ranks = rs.ranks()

    def heap_key(word):
        return (-len(word), tuple(-ranks[c] for c in word))

    pending: dict[str, Scalar] = {}
    heap: list = []
    for word, coeff in f.items():
        pending[word] = coeff
        heapq.heappush(heap, (heap_key(word), word))
    result: dict[str, Scalar] = {}
    while heap:
        _, word = heapq.heappop(heap)
        if word not in pending:
            continue
        coeff = pending.pop(word)
        if coeff == 0:
            continue
        match = rs.leftmost_match(word)
        if match is None:
            total = result.get(word, 0) + coeff
            if total == 0:
                result.pop(word, None)
            else:
                result[word] = exact(total)
            continue
        pos, ridx = match
        lead, tail = rs.rules[ridx]
        prefix, suffix = word[:pos], word[pos + len(lead):]
        for tword, tcoeff in tail._terms.items():
            new_word = prefix + tword + suffix
            if new_word in pending:
                total = pending[new_word] + coeff * tcoeff
                if total == 0:
                    del pending[new_word]
                else:
                    pending[new_word] = exact(total)
            else:
                pending[new_word] = exact(coeff * tcoeff)
                heapq.heappush(heap, (heap_key(new_word), new_word))
    out = NcPoly()
    out._terms = result
    return out


def _algebra_map(f: NcPoly, images: "dict[str, NormalPoly]") -> NormalPoly:
    """Image of f under the algebra map sending each letter to images[letter].

    Each word is folded run by run: the power of a run's image is formed
    first, by repeated squaring, so a run of length e costs O(log e)
    products (the product is associative, so the result is the same).
    """
    out = []
    for word, coeff in f._terms.items():
        prod = NormalPoly.one()
        for ch, run in groupby(word):
            if ch not in images:
                raise ValueError(f"word {word!r} has a letter outside {{x, y}}")
            prod = multiply(prod, _power(images[ch], sum(1 for _ in run)))
        out.extend((km, coeff * v) for km, v in prod._terms.items())
    return NormalPoly(out)


def normal_form(f: NcPoly) -> NormalPoly:
    """Canonical form of f modulo the ideal (xy - yx - y^2).

    R = k<x,y>/(xy - yx - y^2) is the Ore extension k[y][x; delta] with
    delta = y^2 d/dy: the relation x*y = y*x + y^2 extends to
    x*p(y) = p(y)*x + y^2*p'(y) for every polynomial p, and an Ore extension
    is presented by exactly this relation.  So {y^k x^m} is a basis of R,
    ``multiply`` is the product in that basis, and the quotient map is the
    algebra map from the free algebra sending x and y to the basis elements
    (0, 1) and (1, 0).  Each word is folded run by run through ``multiply``:
    polynomial work in the word length, where ``reduce_poly`` (kept as the
    test oracle) doubles its work with each extra x.  Raises ValueError for
    a letter outside {x, y}.
    """
    return _algebra_map(f, {X: NormalPoly.monomial(0, 1), Y: NormalPoly.monomial(1, 0)})


def alpha_coeff(k: int, n: int) -> Scalar:
    """Coefficient of y^k x^(n-k+1) in the normal form of x^n y: n!/(n-k+1)!."""
    if not 1 <= k <= n + 1:
        raise OutOfRangeError(f"alpha_coeff requires 1 <= k <= n+1, got k={k}, n={n}")
    return factorial(n) // factorial(n - k + 1)


# The most bits the coefficients of one expansion x^b y^c may hold in all,
# by the bound in ``_x_power_times_y_power``: it admits x^4096*y (about 2^28)
# and refuses x^50000*y^49999 (about 2^35) before anything is expanded.
EXPANSION_BITS = 2 ** 30


# Bounded: a word with an x-run of length D meets about 2D (b, c) pairs, each
# expansion holding b + 1 integers, so an unbounded cache grows as D^2 with
# long input words.  4096 is nearly three times the 1390-1450 distinct pairs
# that one pass of the benchmark's normal_forms workload meets (seeds 0-2),
# so it never evicts.
@lru_cache(maxsize=4096)
def _x_power_times_y_power(b: int, c: int):
    """Normal form of x^b y^c as a tuple of ((k, m), coeff).

    In the Ore extension x^b p = sum_j C(b, j) delta^j(p) x^(b-j) (Leibniz),
    and delta^j(y^c) = c(c+1)...(c+j-1) y^(c+j), so
    x^b y^c = sum_j C(b, j) c(c+1)...(c+j-1) y^(c+j) x^(b-j).
    Each coefficient is the previous one times (b-j)(c+j)/(j+1); the
    division is exact because C(b, j)(b-j) = C(b, j+1)(j+1).

    Size.  C(b, j) <= 2^b and c(c+1)...(c+j-1) <= (b+c)^b, so each of the
    b + 1 coefficients has at most b*(1 + bitlen(b+c)) + 1 bits.  When that
    total exceeds EXPANSION_BITS the expansion is an OutOfRangeError,
    raised before it is formed.
    """
    if c == 0:
        return (((0, b), 1),)
    bits = (b + 1) * (b * (1 + (b + c).bit_length()) + 1)
    if bits > EXPANSION_BITS:
        raise OutOfRangeError(
            f"the normal form of x^{b}*y^{c} may need {bits} bits, "
            f"more than {EXPANSION_BITS}")
    out = []
    coeff = 1
    for j in range(b + 1):
        out.append(((c + j, b - j), coeff))
        coeff = coeff * (b - j) * (c + j) // (j + 1)
    return tuple(out)


def multiply(f: NormalPoly, g: NormalPoly) -> NormalPoly:
    """Product in the algebra, returned in normal form.

    Fraction-free.  ``cleared`` writes f = P/d_f and g = Q/d_g with integer
    coefficients.  The product is bilinear, so fg = PQ/(d_f d_g), and PQ is
    a sum of integer products through the closed form of x^b y^c
    (``_x_power_times_y_power``); the terms of g are grouped by their
    y-degree c, so that form is looked up once per term of f and distinct
    c.  Each nonzero coefficient v of PQ is divided once by d = d_f d_g:
    if divmod(v, d) leaves remainder 0 the quotient is v/d exactly, stored
    as int; otherwise v/d is not integral and Fraction(v, d) is it in
    lowest terms.  So each coefficient is stored as ``_nonzero`` stores
    v/d.  tests/multiply_oracle.py keeps the termwise rational product this
    replaced as the differential oracle, and test_multiply_matches_engine
    checks against the rewriting engine ``reduce_poly``.
    """
    P, d_f = cleared(f._terms.values())
    Q, d_g = cleared(g._terms.values())
    by_c: dict[int, list] = {}
    for (c, e), q in zip(g._terms, Q):
        by_c.setdefault(c, []).append((e, q))
    out: dict[tuple[int, int], int] = {}
    for (a, b), p in zip(f._terms, P):
        for c, row in by_c.items():
            expansion = _x_power_times_y_power(b, c)
            for e, q in row:
                pq = p * q
                for (k, m), v in expansion:
                    key = (a + k, m + e)
                    out[key] = out.get(key, 0) + pq * v
    d = d_f * d_g
    terms = {}
    for key, v in out.items():
        if v:
            quo, rem = divmod(v, d)
            terms[key] = Fraction(v, d) if rem else quo
    return NormalPoly._of(terms)


def _power(p: NormalPoly, e: int) -> NormalPoly:
    """p^e for e >= 1 by repeated squaring: O(log e) calls of ``multiply``."""
    if e == 1:
        return p
    half = _power(multiply(p, p), e // 2)
    return multiply(half, p) if e % 2 else half


# -- ambiguities --------------------------------------------------------------


def _ambiguities(rs: RewriteSystem):
    """(word, i, pos_i, j, pos_j) for every minimal overlap or inclusion."""
    leads = [lead for lead, _ in rs.rules]
    found = []
    seen = set()
    for i, u in enumerate(leads):
        for j, v in enumerate(leads):
            # proper overlap: a suffix of u equals a prefix of v
            for t in range(1, min(len(u), len(v))):
                if u[-t:] == v[:t]:
                    w = u + v[t:]
                    key = (w, i, 0, j, len(u) - t)
                    if key not in seen:
                        seen.add(key)
                        found.append(key)
            # inclusion: v occurs properly inside u
            if i != j and len(v) < len(u):
                start = u.find(v)
                while start >= 0:
                    key = (u, i, 0, j, start)
                    if key not in seen:
                        seen.add(key)
                        found.append(key)
                    start = u.find(v, start + 1)
    ranks = rs.ranks()
    found.sort(key=lambda t: (deglex_key(t[0], ranks), t[1], t[3], t[4]))
    return found


def overlaps(rs: RewriteSystem) -> "list[tuple[str, int, int]]":
    """All minimal ambiguity words with the two rule indices involved."""
    return [(w, i, j) for w, i, _, j, _ in _ambiguities(rs)]


# -- graded counting -----------------------------------------------------------


def hilbert_dim(d: int) -> int:
    """Number of normal monomials y^k x^m of total degree d, which is d + 1.

    {y^k x^m} is a basis of the algebra (see ``normal_form``), and its
    elements of degree d are y^k x^(d-k) for k = 0..d.
    """
    if d < 0:
        raise OutOfRangeError("degree must be nonnegative")
    return d + 1


def gs_series_coefficients(gens: int, rels: int, up_to: int) -> "list[int]":
    """First up_to+1 coefficients of 1 / (1 - gens*t + rels*t^2)."""
    if up_to < 0:
        raise OutOfRangeError("up_to must be nonnegative")
    coeffs = [1]
    for k in range(1, up_to + 1):
        value = gens * coeffs[k - 1] - (rels * coeffs[k - 2] if k >= 2 else 0)
        coeffs.append(value)
    return coeffs


# -- automorphisms -------------------------------------------------------------


class JordanAutomorphism(_Record):
    """x -> alpha*x + p(y), y -> alpha*y with alpha nonzero."""

    __slots__ = _fields = ("alpha", "p")

    def __init__(self, alpha: Scalar, p: UniPoly):
        alpha = exact(alpha)
        if alpha == 0:
            raise ValueError("automorphism requires alpha != 0")
        super().__init__(alpha, p)

    @classmethod
    def identity(cls) -> "JordanAutomorphism":
        return cls(1, UniPoly.zero())

    def inverse(self) -> "JordanAutomorphism":
        inv = exact(Fraction(1) / self.alpha)
        return JordanAutomorphism(inv, self.p.scale_argument(inv) * (-inv))


def compose_automorphisms(a: JordanAutomorphism, b: JordanAutomorphism) -> JordanAutomorphism:
    """Group law (p1, c1)(p2, c2) = (c2*p1(y) + p2(c1*y), c1*c2)."""
    return JordanAutomorphism(
        exact(a.alpha * b.alpha),
        b.alpha * a.p + b.p.scale_argument(a.alpha),
    )


def apply_automorphism(phi: JordanAutomorphism, f: NcPoly) -> NormalPoly:
    """Substitute x -> alpha*x + p(y), y -> alpha*y and take the normal form.

    Both images are already normal: alpha*x + p(y) is
    {(0, 1): alpha, (i, 0): p_i} and alpha*y is {(1, 0): alpha}."""
    x_image = NormalPoly([((0, 1), phi.alpha)]
                         + [((i, 0), c) for i, c in enumerate(phi.p.coeffs)])
    return _algebra_map(f, {X: x_image, Y: NormalPoly({(1, 0): phi.alpha})})
