"""Free algebra on {x, y}, the Jordan-plane product and the rewriting engine.

Monomials are plain strings over the alphabet.  Normal forms on the basis
y^k x^m come from the Ore-extension product ``multiply``: the algebra is
k[y][x; y^2 d/dy] (see ``normal_form``).  The generic rewriting engine
(deglex with x > y, the single rule xy -> yx + y^2) remains for
``confluence_check``, ``complete()``, the toy systems and as the test
oracle: tests/test_freealg.py::test_multiply_matches_engine checks
``multiply`` and ``normal_form`` against ``reduce_poly``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial

from .errors import OutOfRangeError, PolyParseError
from .polynomials import UniPoly
from .scalars import Scalar, exact, scalar_str

X, Y = "x", "y"
DEFAULT_ALPHABET = (Y, X)  # ascending: y < x


def deglex_key(word: str, ranks: "dict[str, int]"):
    """Sort key realizing degree-lexicographic order for the given ranks."""
    return (len(word), tuple(ranks[c] for c in word))


def _ranks(alphabet) -> "dict[str, int]":
    return {c: i for i, c in enumerate(alphabet)}


# -- noncommutative polynomials ---------------------------------------------


class NcPoly:
    """Finite rational combination of words; no zero coefficients stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for word, coeff in (terms.items() if isinstance(terms, dict) else terms):
                c = exact(coeff)
                if c != 0:
                    prev = data.get(word, 0)
                    total = prev + c
                    if total == 0:
                        data.pop(word, None)
                    else:
                        data[word] = exact(total)
        self._terms = data

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({"": 1})

    @classmethod
    def variable(cls, name: str) -> "NcPoly":
        return cls({name: 1})

    @classmethod
    def monomial(cls, word: str, coeff=1) -> "NcPoly":
        return cls({word: coeff})

    def items(self) -> "list[tuple[str, Scalar]]":
        ranks = _ranks(DEFAULT_ALPHABET)
        return sorted(self._terms.items(),
                      key=lambda kv: deglex_key(kv[0], ranks), reverse=True)

    def coefficient(self, word: str) -> Scalar:
        return self._terms.get(word, 0)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            total = out.get(w, 0) + c
            if total == 0:
                out.pop(w, None)
            else:
                out[w] = exact(total)
        res = NcPoly()
        res._terms = out
        return res

    def __neg__(self) -> "NcPoly":
        res = NcPoly()
        res._terms = {w: -c for w, c in self._terms.items()}
        return res

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, c) -> "NcPoly":
        c = exact(c)
        if c == 0:
            return NcPoly.zero()
        res = NcPoly()
        res._terms = {w: exact(v * c) for w, v in self._terms.items()}
        return res

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return self.scale(other)
        out: dict[str, Scalar] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                w = wa + wb
                total = out.get(w, 0) + ca * cb
                if total == 0:
                    out.pop(w, None)
                else:
                    out[w] = exact(total)
        res = NcPoly()
        res._terms = out
        return res

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self) -> str:
        return format_terms([(w, c) for w, c in self.items()], word_text)

    def __repr__(self) -> str:
        return f"NcPoly({self._terms!r})"


class NormalPoly:
    """Polynomial on the normal basis y^k x^m, keyed by (k, m)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                k, m = key
                c = exact(coeff)
                if c != 0:
                    total = data.get((k, m), 0) + c
                    if total == 0:
                        data.pop((k, m), None)
                    else:
                        data[(k, m)] = exact(total)
        self._terms = data

    @classmethod
    def zero(cls) -> "NormalPoly":
        return cls()

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

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        return max((k + m for k, m in self._terms), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NormalPoly") -> "NormalPoly":
        out = dict(self._terms)
        for km, c in other._terms.items():
            total = out.get(km, 0) + c
            if total == 0:
                out.pop(km, None)
            else:
                out[km] = exact(total)
        res = NormalPoly()
        res._terms = out
        return res

    def __neg__(self) -> "NormalPoly":
        res = NormalPoly()
        res._terms = {km: -c for km, c in self._terms.items()}
        return res

    def __sub__(self, other: "NormalPoly") -> "NormalPoly":
        return self + (-other)

    def scale(self, c) -> "NormalPoly":
        c = exact(c)
        if c == 0:
            return NormalPoly.zero()
        res = NormalPoly()
        res._terms = {km: exact(v * c) for km, v in self._terms.items()}
        return res

    def embed(self) -> NcPoly:
        """The same element as a word polynomial (y's before x's)."""
        return NcPoly({Y * k + X * m: c for (k, m), c in self._terms.items()})

    def __str__(self) -> str:
        return format_terms([(Y * k + X * m, c) for (k, m), c in self.items()], word_text)

    def __repr__(self) -> str:
        return f"NormalPoly({self._terms!r})"


# -- text form ---------------------------------------------------------------


def word_text(word: str) -> str:
    if not word:
        return "1"
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        pieces.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "*".join(pieces)


def format_terms(terms, to_text) -> str:
    if not terms:
        return "0"
    out = []
    for word, coeff in terms:
        body = to_text(word)
        mag = abs(coeff)
        if body == "1":
            piece = scalar_str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{scalar_str(mag)}*{body}"
        if not out:
            out.append(piece if coeff > 0 else "-" + piece)
        else:
            out.append((" + " if coeff > 0 else " - ") + piece)
    return "".join(out)


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


# -- rewriting ----------------------------------------------------------------


@dataclass(frozen=True)
class RewriteSystem:
    """Rules lead -> tail with every tail monomial deglex-smaller than lead."""

    alphabet: tuple
    rules: tuple  # of (lead word, tail NcPoly)

    def __post_init__(self):
        ranks = _ranks(self.alphabet)
        for lead, tail in self.rules:
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
    first, so a run of a monomial image costs one expansion per run.
    """
    out = []
    for word, coeff in f._terms.items():
        prod = NormalPoly.one()
        for ch, run in groupby(word):
            if ch not in images:
                raise ValueError(f"word {word!r} has a letter outside {{x, y}}")
            power = NormalPoly.one()
            for _ in run:
                power = multiply(power, images[ch])
            prod = multiply(prod, power)
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
    polynomial work in the word length, where ``reduce_poly`` (kept for
    ``confluence_check``, ``complete`` and as the test oracle) doubles its
    work with each extra x.  Raises ValueError for a letter outside {x, y}.
    """
    return _algebra_map(f, {X: NormalPoly.monomial(0, 1), Y: NormalPoly.monomial(1, 0)})


def alpha_coeff(k: int, n: int) -> Scalar:
    """Coefficient of y^k x^(n-k+1) in the normal form of x^n y: n!/(n-k+1)!."""
    if not 1 <= k <= n + 1:
        raise OutOfRangeError(f"alpha_coeff requires 1 <= k <= n+1, got k={k}, n={n}")
    return factorial(n) // factorial(n - k + 1)


# Bounded: a word with an x-run of length D meets about 2D (b, c) pairs, each
# expansion holding b + 1 integers, so an unbounded cache grows as D^2 with
# long input words.  4096 is about three times the 1350-1420 pairs that one
# pass of the benchmark's normal_forms workload meets, so it never evicts.
@lru_cache(maxsize=4096)
def _x_power_times_y_power(b: int, c: int):
    """Normal form of x^b y^c as a tuple of ((k, m), coeff).

    In the Ore extension x^b p = sum_j C(b, j) delta^j(p) x^(b-j) (Leibniz),
    and delta^j(y^c) = c(c+1)...(c+j-1) y^(c+j), so
    x^b y^c = sum_j C(b, j) c(c+1)...(c+j-1) y^(c+j) x^(b-j).
    """
    if c == 0:
        return (((0, b), 1),)
    out = []
    rising = 1
    for j in range(b + 1):
        out.append(((c + j, b - j), comb(b, j) * rising))
        rising *= c + j
    return tuple(out)


def multiply(f: NormalPoly, g: NormalPoly) -> NormalPoly:
    """Product in the algebra, returned in normal form.

    Expands x^b y^c by the Ore-extension closed form termwise;
    tests/test_freealg.py::test_multiply_matches_engine checks it against
    the rewriting engine ``reduce_poly``.
    """
    out: dict[tuple[int, int], Scalar] = {}
    for (a, b), cf in f._terms.items():
        for (c, d), cg in g._terms.items():
            coeff = cf * cg
            if b == 0:
                key = (a + c, d)
                total = out.get(key, 0) + coeff
                if total == 0:
                    out.pop(key, None)
                else:
                    out[key] = exact(total)
                continue
            for (k, m), v in _x_power_times_y_power(b, c):
                key = (a + k, m + d)
                total = out.get(key, 0) + coeff * v
                if total == 0:
                    out.pop(key, None)
                else:
                    out[key] = exact(total)
    return NormalPoly(out)


# -- ambiguities and confluence ----------------------------------------------


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


def _apply_rule_at(word: str, rs: RewriteSystem, ridx: int, pos: int) -> NcPoly:
    lead, tail = rs.rules[ridx]
    prefix, suffix = word[:pos], word[pos + len(lead):]
    return NcPoly({prefix + tword + suffix: c for tword, c in tail._terms.items()})


@dataclass(frozen=True)
class OverlapCheck:
    word: str
    rule_left: int
    rule_right: int
    left_nf: NcPoly
    right_nf: NcPoly

    @property
    def resolved(self) -> bool:
        return self.left_nf == self.right_nf


@dataclass(frozen=True)
class ConfluenceReport:
    confluent: bool
    checks: tuple

    def __bool__(self) -> bool:
        return self.confluent


def confluence_check(rs: RewriteSystem, max_degree: int) -> ConfluenceReport:
    """Resolve every ambiguity of degree <= max_degree both ways and compare."""
    checks = []
    for word, i, pos_i, j, pos_j in _ambiguities(rs):
        if len(word) > max_degree:
            continue
        left = reduce_poly(_apply_rule_at(word, rs, i, pos_i), rs)
        right = reduce_poly(_apply_rule_at(word, rs, j, pos_j), rs)
        checks.append(OverlapCheck(word, i, j, left, right))
    return ConfluenceReport(all(c.resolved for c in checks), tuple(checks))


def complete(rs: RewriteSystem, max_degree: int) -> RewriteSystem:
    """Bounded-degree completion: add oriented unresolved overlaps as rules."""
    ranks = _ranks(rs.alphabet)
    rules = list(rs.rules)
    while True:
        current = RewriteSystem(rs.alphabet, tuple(rules))
        report = confluence_check(current, max_degree)
        new_rule = None
        for check in report.checks:
            if check.resolved:
                continue
            h = check.left_nf - check.right_nf
            lead_word = max(h._terms, key=lambda w: deglex_key(w, ranks))
            lc = h._terms[lead_word]
            tail = NcPoly({w: exact(Fraction(-c, 1) / lc)
                           for w, c in h._terms.items() if w != lead_word})
            new_rule = (lead_word, tail)
            break
        if new_rule is None:
            return current
        rules.append(new_rule)


# -- graded counting -----------------------------------------------------------


def normal_word_count(rs: RewriteSystem, degree: int) -> int:
    """Number of words of the given degree avoiding every leading monomial."""
    leads = [lead for lead, _ in rs.rules]
    prefixes = {""}
    for lead in leads:
        for t in range(1, len(lead)):
            prefixes.add(lead[:t])
    states = sorted(prefixes)

    def step(state: str, ch: str) -> "str | None":
        t = state + ch
        if any(t.endswith(lead) for lead in leads):
            return None
        for start in range(len(t)):
            if t[start:] in prefixes:
                return t[start:]
        return ""

    counts = {s: 0 for s in states}
    counts[""] = 1
    for _ in range(degree):
        nxt = {s: 0 for s in states}
        for s, c in counts.items():
            if c == 0:
                continue
            for ch in rs.alphabet:
                s2 = step(s, ch)
                if s2 is not None:
                    nxt[s2] += c
        counts = nxt
    return sum(counts.values())


def hilbert_dim(d: int) -> int:
    """Number of normal monomials y^k x^m of total degree d (equals d + 1)."""
    if d < 0:
        raise OutOfRangeError("degree must be nonnegative")
    return normal_word_count(jordan_system(), d)


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


@dataclass(frozen=True)
class JordanAutomorphism:
    """x -> alpha*x + p(y), y -> alpha*y with alpha nonzero."""

    alpha: Scalar
    p: UniPoly

    def __post_init__(self):
        object.__setattr__(self, "alpha", exact(self.alpha))
        if self.alpha == 0:
            raise ValueError("automorphism requires alpha != 0")

    @classmethod
    def identity(cls) -> "JordanAutomorphism":
        return cls(1, UniPoly.zero())

    def inverse(self) -> "JordanAutomorphism":
        inv = exact(Fraction(1) / self.alpha)
        return JordanAutomorphism(inv, self.p.scale_argument(inv) * (-inv))

    def x_image(self) -> NcPoly:
        terms = {X: self.alpha}
        for i, c in enumerate(self.p.coeffs):
            if c != 0:
                terms[Y * i] = c
        return NcPoly(terms)

    def y_image(self) -> NcPoly:
        return NcPoly({Y: self.alpha})


def compose_automorphisms(a: JordanAutomorphism, b: JordanAutomorphism) -> JordanAutomorphism:
    """Group law (p1, c1)(p2, c2) = (c2*p1(y) + p2(c1*y), c1*c2)."""
    return JordanAutomorphism(
        exact(a.alpha * b.alpha),
        b.alpha * a.p + b.p.scale_argument(a.alpha),
    )


def apply_automorphism(phi: JordanAutomorphism, f: NcPoly) -> NormalPoly:
    """Substitute x -> alpha*x + p(y), y -> alpha*y and take the normal form."""
    return _algebra_map(f, {X: normal_form(phi.x_image()), Y: normal_form(phi.y_image())})
