"""Free algebra on {x, y}, the Jordan-plane product and the rewriting engine.

Monomials are plain strings over the alphabet.  ``NcPoly`` (keyed by word)
and ``NormalPoly`` (y^k x^m keyed by its number ``_index(k, m)`` in the
normal basis, by degree and then by k) share one term core, ``_Terms``,
which stores int numerators over one denominator in lowest terms (the proof
that this form is canonical is in ``NormalPoly``).  The linear operations
sum numerators on a common denominator and reduce once in ``_reduced``;
``items()`` and ``numerators()`` decode the keys to (k, m), and ``items()``
and ``coefficient()`` present exact scalars.  Normal forms on the basis y^k x^m come
from the Ore-extension product ``multiply``: the algebra is
k[y][x; y^2 d/dy] (see ``normal_form``).  ``multiply`` is fraction-free
and tuple-free: it sums the stored numerators on the stored keys of the
product and divides by one gcd at the end; one public call expands at most
EXPANSION_BITS bits.  The rewriting engine (deglex with x > y, the single
rule xy -> yx + y^2) remains for the overlap list of ``gb-check`` and as
the test oracle.
"""

from __future__ import annotations

import heapq
import re
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import groupby
from math import factorial, gcd, isqrt, lcm

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


class _Terms:
    """Shared core of ``NcPoly`` and ``NormalPoly``: a finite rational
    combination of keys, stored as int numerators ``_nums`` (no zeros) over
    one denominator ``_den``, in the form proved canonical in
    ``NormalPoly``.  Equality holds only within one class."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                key = self._key(key)
                data[key] = data.get(key, 0) + exact(coeff)
        nums, self._den = cleared(data.values())
        self._nums = {key: v for key, v in zip(data, nums) if v}

    @staticmethod
    def _key(key):
        """An input key as stored: a word as it is; ``NormalPoly`` checks
        its pairs and numbers them."""
        return key

    def _pairs(self):
        """(input key, numerator) pairs."""
        return self._nums.items()

    @classmethod
    def _of(cls, nums: dict, den: int):
        """Wrap numerators and a denominator already in the stored form."""
        res = cls.__new__(cls)
        res._nums = nums
        res._den = den
        return res

    @classmethod
    def _reduced(cls, sums: dict, den: int):
        """The element sum of v/den over the int sums v, in the stored form:
        zero sums dropped, the rest and den divided by their gcd.  sums
        itself is kept when the gcd is 1 and no sum is zero."""
        g = gcd(den, *sums.values())
        if g == 1 and all(sums.values()):
            return cls._of(sums, den)
        return cls._of({key: v // g for key, v in sums.items() if v}, den // g)

    @classmethod
    def _combination(cls, pairs, den: int = 1):
        """sum of n * p over the (int n, element p) pairs, divided by den:
        the numerators summed over the lcm of the denominators."""
        common = lcm(*(p._den for _, p in pairs))
        out = {}
        for n, p in pairs:
            s = n * (common // p._den)
            for key, v in p._nums.items():
                out[key] = out.get(key, 0) + s * v
        return cls._reduced(out, common * den)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._nums

    def numerators(self) -> "tuple[dict, int]":
        """(int numerator by input key, denominator): what ``cleared`` makes
        of the coefficients, the same numbers as the stored form."""
        return dict(self._pairs()), self._den

    def _value(self, num: int) -> Scalar:
        return exact(Fraction(num, self._den))

    def _items(self) -> list:
        return [(key, self._value(v)) for key, v in self._pairs()]

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __add__(self, other):
        return self._combination([(1, self), (1, other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._combination([(1, self), (-1, other)])

    def scale(self, c):
        c = exact(c)
        return self._combination([(c.numerator, self)], c.denominator)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._items())!r})"


def _index(k: int, m: int) -> int:
    """The number of y^k x^m in the normal basis, by degree d = k + m and
    then by k: T(d) + k, T(d) = d(d+1)/2, so degree d fills [T(d), T(d+1))."""
    d = k + m
    return d * (d + 1) // 2 + k


def _exponents(key: int) -> "tuple[int, int]":
    """(k, m) of the key ``_index(k, m)``: its degree d is the one with
    T(d) <= key < T(d+1), and 8 T(d) + 1 = (2d + 1)^2."""
    d = (isqrt(8 * key + 1) - 1) // 2
    k = key - d * (d + 1) // 2
    return k, d - k


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
        return sorted(self._items(), key=lambda kv: deglex_key(kv[0], ranks), reverse=True)

    def coefficient(self, word: str) -> Scalar:
        return self._value(self._nums.get(word, 0))

    @property
    def degree(self) -> int:
        return max((len(w) for w in self._nums), default=-1)

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return self.scale(other)
        out = {}
        for wa, ca in self._nums.items():
            for wb, cb in other._nums.items():
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return NcPoly._reduced(out, self._den * other._den)

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self) -> str:
        return format_terms((word_text(w), c) for w, c in self.items())


class NormalPoly(_Terms):
    """Polynomial on the normal basis y^k x^m, given and read keyed by (k, m).

    Stored form: int numerators n_key, none zero, over one denominator
    den > 0 with gcd(content, den) = 1, content being the gcd of the n_key,
    on the int keys ``_index(k, m)``, one fixed numbering of the basis;
    zero is ({}, 1).  It is canonical: the coefficient n_key/den has the
    reduced denominator den/g_key, g_key = gcd(n_key, den), and for each
    prime p the largest power of p in these is v_p(den) - min v_p(g_key) =
    v_p(den), as gcd over the keys of g_key = gcd(content, den) = 1.  So den
    is the lcm of the reduced denominators and n_key = den * coefficient,
    and ``_exponents`` inverts ``_index`` on k, m >= 0: all of (nums, den)
    is fixed by the coefficients, ``==`` and ``hash`` are structural, and
    ``cleared`` of the coefficients returns (nums, den) unchanged.  Keys are
    decoded only at the edges: ``items()``, ``numerators()``, ``support()``,
    ``degree``, ``embed`` and ``str``.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> int:
        """``_index(k, m)`` for y^k x^m: a ValueError unless both are ints >= 0."""
        k, m = key
        if not (type(k) is type(m) is int and k >= 0 <= m):
            raise ValueError(f"{key!r} is not a pair of exponents (k, m) of y^k x^m")
        return _index(k, m)

    def _pairs(self):
        return [(_exponents(key), v) for key, v in self._nums.items()]

    @classmethod
    def one(cls) -> "NormalPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, k: int, m: int, coeff=1) -> "NormalPoly":
        return cls({(k, m): coeff})

    def items(self) -> "list[tuple[tuple[int, int], Scalar]]":
        # descending deglex: higher total degree first, then fewer y's first
        return sorted(self._items(), key=lambda kv: (-sum(kv[0]), kv[0][0]))

    def coefficient(self, k: int, m: int) -> Scalar:
        return self._value(self._nums.get(_index(k, m), 0) if k >= 0 <= m else 0)

    def support(self) -> "list[tuple[int, int]]":
        return [km for km, _ in self.items()]

    @property
    def degree(self) -> int:
        return sum(_exponents(max(self._nums))) if self._nums else -1

    def embed(self) -> NcPoly:
        """The same element as a word polynomial (y's before x's)."""
        return NcPoly._of({Y * k + X * m: v for (k, m), v in self._pairs()}, self._den)

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
        return min(((word.find(lead), i) for i, (lead, _) in enumerate(self.rules)
                    if lead in word), default=None)


@lru_cache(maxsize=None)
def jordan_system() -> RewriteSystem:
    """The Jordan rewriting rule xy -> yx + y^2 under deglex with x > y."""
    return RewriteSystem(DEFAULT_ALPHABET, (("xy", NcPoly({"yx": 1, "yy": 1})),))


def reduce_poly(f: NcPoly, rs: RewriteSystem) -> NcPoly:
    """Rewrite f to a combination of normal words (leftmost strategy).

    Terminates because every rule replaces a word by strictly smaller words
    in the admissible order.  The heap pops the largest word first, so every
    term that reaches a word comes before it: like terms are merged in
    ``pending`` and each distinct word is pushed and processed once.
    """
    ranks = rs.ranks()

    def heap_key(word):
        return (-len(word), tuple(-ranks[c] for c in word))

    pending = dict(f.items())
    heap = [(heap_key(word), word) for word in pending]
    heapq.heapify(heap)
    result = {}
    while heap:
        _, word = heapq.heappop(heap)
        coeff = pending.pop(word)
        match = rs.leftmost_match(word) if coeff else None
        if match is None:
            result[word] = coeff
            continue
        pos, ridx = match
        lead, tail = rs.rules[ridx]
        for tword, tcoeff in tail.items():
            new_word = word[:pos] + tword + word[pos + len(lead):]
            if new_word not in pending:
                heapq.heappush(heap, (heap_key(new_word), new_word))
            pending[new_word] = pending.get(new_word, 0) + coeff * tcoeff
    return NcPoly(result)


# The most bits of expansion bounds (``_bound``) that one public call may
# admit in all: x^4096*y (about 2^28) passes; x^50000*y^49999 (2^35), or
# three terms x^8400*y (2^30 each), is refused before it is expanded.
EXPANSION_BITS = 2 ** 30
# [bits] the public call under way may still admit, None between calls; a
# ContextVar keeps the calls of different threads apart.
_left: "ContextVar[list | None]" = ContextVar("expansion_bits_left", default=None)


def _metered(fn):
    """fn as a public call: the calls it makes share its expansion budget."""
    @wraps(fn)
    def call(*args, **kwargs):
        token = _left.set(_left.get() or [EXPANSION_BITS])
        try:
            return fn(*args, **kwargs)
        finally:
            _left.reset(token)
    return call


def _algebra_map(f: NcPoly, images: "dict[str, NormalPoly]") -> NormalPoly:
    """Image of f under the algebra map sending each letter to images[letter].

    Each word is folded run by run: the power of a run's image is formed
    first, by repeated squaring, so a run of length e costs O(log e)
    products (the product is associative, so the result is the same).  The
    images of the words are combined by their numerators (``_combination``).
    """
    products = []
    for word, n in f._nums.items():
        prod = NormalPoly.one()
        for ch, run in groupby(word):
            if ch not in images:
                raise ValueError(f"word {word!r} has a letter outside {{x, y}}")
            prod = multiply(prod, _power(images[ch], sum(1 for _ in run)))
        products.append((n, prod))
    return NormalPoly._combination(products, f._den)


@_metered
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


def _x_power_times_y_power(b: int, c: int) -> "tuple[int, ...]":
    """The b + 1 coefficients of the normal form of x^b y^c: entry j is that
    of y^(c+j) x^(b-j), and for c = 0 it is (1,), x^b itself.

    In the Ore extension x^b p = sum_j C(b, j) delta^j(p) x^(b-j) (Leibniz),
    and delta^j(y^c) = c(c+1)...(c+j-1) y^(c+j), so
    x^b y^c = sum_j C(b, j) c(c+1)...(c+j-1) y^(c+j) x^(b-j).
    Each coefficient is the previous one times (b-j)(c+j)/(j+1); the
    division is exact because C(b, j)(b-j) = C(b, j+1)(j+1).
    """
    if not c:
        return (1,)
    out = []
    coeff = 1
    for j in range(b + 1):
        out.append(coeff)
        coeff = coeff * (b - j) * (c + j) // (j + 1)
    return tuple(out)


def _bound(b: int, c: int) -> int:
    """Bits the coefficients of x^b y^c, c >= 1, hold at most in all:
    C(b, j) <= 2^b and c(c+1)...(c+j-1) <= (b+c)^b, so each of the b + 1
    has at most b*(1 + bitlen(b+c)) + 1 bits."""
    return (b + 1) * (b * (1 + (b + c).bit_length()) + 1)


# A word with an x-run of length D meets about 2D (b, c) pairs.  Only
# expansions bounded by EXPANSION_BITS // maxsize are kept, so the cache holds
# at most EXPANSION_BITS bits.  4096 is nearly three times the 1390-1450 pairs
# one pass of the benchmark's normal_forms workload meets (seeds 0-2, all
# under 2^14 bits): it never evicts.
@lru_cache(maxsize=4096)
def _expansion(b: int, c: int) -> "tuple[int, ...] | None":
    """``_x_power_times_y_power``, or None if it is too large to keep."""
    if c and _bound(b, c) > EXPANSION_BITS // _expansion.cache_info().maxsize:
        return None
    return _x_power_times_y_power(b, c)


def _admitted(b: int, c: int) -> "tuple[int, ...]":
    """An expansion too large to keep, charged to the public call: an
    OutOfRangeError before it is formed if its bound exceeds what is left."""
    left = _left.get()
    bits = _bound(b, c)
    if bits > left[0]:
        raise OutOfRangeError(f"the normal form of x^{b}*y^{c} may need {bits} bits, "
                              f"more than the {left[0]} left of {EXPANSION_BITS}")
    left[0] -= bits
    return _x_power_times_y_power(b, c)


@_metered
def multiply(f: NormalPoly, g: NormalPoly) -> NormalPoly:
    """Product in the algebra, returned in normal form.

    Fraction-free.  f and g are stored as P/d_f and Q/d_g with integer
    numerators.  The product is bilinear, so fg = PQ/(d_f d_g), and PQ is
    a sum of integer products through the closed form of x^b y^c
    (``_expansion``), looked up once per term of f and distinct y-degree c
    of g.  One gcd of d = d_f d_g with the sums (stopping at 1) divides
    them and d once (``_reduced``), which leaves the stored form of
    ``NormalPoly``.

    Keys.  The relation is homogeneous, so every term of y^a x^b y^c x^e =
    y^a (x^b y^c) x^e has degree D = a + b + c + e: entry j of the
    expansion is the coefficient of (k, m) = (a + c + j, b + e - j), whose
    key is T(D) + a + c + j.  So PQ is summed on consecutive keys from
    ``_index(a + c, b + e)``; only the |f| + |g| input keys are decoded.
    tests/multiply_oracle.py (termwise, rational) and
    test_multiply_matches_engine (``reduce_poly``) are the oracles.
    """
    if not (f._nums and g._nums):
        return NormalPoly()
    by_c = {}
    for key, q in g._nums.items():
        c, e = _exponents(key)
        by_c.setdefault(c, []).append((e, q))
    out = {}
    for key, p in f._nums.items():
        a, b = _exponents(key)
        for c, row in by_c.items():
            expansion = _expansion(b, c) or _admitted(b, c)
            for e, q in row:
                pq = p * q
                key = _index(a + c, b + e)
                for v in expansion:
                    out[key] = out.get(key, 0) + pq * v
                    key += 1
    return NormalPoly._reduced(out, f._den * g._den)


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
    found = set()
    for i, u in enumerate(leads):
        for j, v in enumerate(leads):
            # proper overlap: a suffix of u equals a prefix of v
            for t in range(1, min(len(u), len(v))):
                if u[-t:] == v[:t]:
                    found.add((u + v[t:], i, 0, j, len(u) - t))
            # inclusion: v occurs properly inside u
            if i != j and len(v) < len(u):
                found.update((u, i, 0, j, s) for s in range(len(u)) if u.startswith(v, s))
    ranks = rs.ranks()
    # deglex_key is one-to-one on words, so this key orders distinct tuples
    return sorted(found, key=lambda t: (deglex_key(t[0], ranks), t[1], t[3], t[4]))


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
    coeffs = [0, 1]  # a zero before the constant term starts the recurrence
    for _ in range(up_to):
        coeffs.append(gens * coeffs[-1] - rels * coeffs[-2])
    return coeffs[1:]


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


@_metered
def apply_automorphism(phi: JordanAutomorphism, f: NcPoly) -> NormalPoly:
    """Substitute x -> alpha*x + p(y), y -> alpha*y and take the normal form.

    Both images are already normal: alpha*x + p(y) is
    {(0, 1): alpha, (i, 0): p_i} and alpha*y is {(1, 0): alpha}."""
    x_image = NormalPoly([((0, 1), phi.alpha)]
                         + [((i, 0), c) for i, c in enumerate(phi.p.coeffs)])
    return _algebra_map(f, {X: x_image, Y: NormalPoly({(1, 0): phi.alpha})})
