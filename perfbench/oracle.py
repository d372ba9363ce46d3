"""Independent exact-arithmetic oracles for checking benchmark items.

Nothing here imports jordanlab.  Each check recomputes the expected answer
from first principles with ``fractions.Fraction`` and plain lists, so a
change to the library cannot change what counts as correct.

Elements of R = k<x,y>/(xy - yx - y^2) are dicts ``{(k, m): c}`` meaning
``sum c * y^k x^m``.  R is the Ore extension k[y][x; d] with d = y^2 d/dy,
which gives the closed form

    x^b y^c = sum_j C(b, j) * c(c+1)...(c+j-1) * y^(c+j) x^(b-j).

Matrices are lists of rows of exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


class CheckError(Exception):
    """An item's result disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- the algebra R -------------------------------------------------------------


def _add_term(out: dict, key, coeff) -> None:
    total = out.get(key, 0) + coeff
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def x_power_times_y_power(b: int, c: int) -> dict:
    """Normal form of x^b y^c by the Ore closed form."""
    out = {}
    rising = 1
    for j in range(b + 1):
        if j:
            rising *= c + j - 1
        if rising == 0:
            break
        out[(c + j, b - j)] = comb(b, j) * rising
    return out


def product(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            for (k, m), v in x_power_times_y_power(b, c).items():
                _add_term(out, (a + k, m + d), cf * cg * v)
    return out


X_ELEM = {(0, 1): 1}
Y_ELEM = {(1, 0): 1}


def word_normal_form(word: str) -> dict:
    out = {(0, 0): 1}
    for ch in word:
        out = product(out, X_ELEM if ch == "x" else Y_ELEM)
    return out


def automorphism_image(alpha, p_coeffs, word: str) -> dict:
    """Normal form of the word under x -> alpha*x + p(y), y -> alpha*y."""
    x_img = {(0, 1): alpha}
    for i, c in enumerate(p_coeffs):
        if c:
            _add_term(x_img, (i, 0), c)
    y_img = {(1, 0): alpha}
    out = {(0, 0): 1}
    for ch in word:
        out = product(out, x_img if ch == "x" else y_img)
    return out


def poly_text(f: dict) -> str:
    """Text in the CLI polynomial grammar (y's before x's in each term)."""
    if not f:
        return "0"
    pieces = []
    for (k, m), c in sorted(f.items()):
        factors = [str(c)]
        if k:
            factors.append(f"y^{k}")
        if m:
            factors.append(f"x^{m}")
        pieces.append("*".join(factors))
    text = pieces[0]
    for p in pieces[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def parse_normal_text(text: str) -> dict:
    """Parse printed normal-form text such as '2*y^3*x - 1/2*y + 4'."""
    text = text.strip()
    require(bool(text), "empty polynomial text")
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "0 - " + text[1:]
    tokens = text.replace(" - ", " + -").split(" + ")
    out: dict = {}
    for token in tokens:
        token = token.strip()
        if token == "0":
            continue
        sign = -1 if token.startswith("-") else 1
        coeff = Fraction(sign)
        k = m = 0
        for factor in token.lstrip("-").split("*"):
            base, _, exp = factor.partition("^")
            power = int(exp) if exp else 1
            if base == "y":
                k += power
            elif base == "x":
                m += power
            else:
                coeff *= Fraction(factor)
        require((k, m) not in out, f"repeated monomial in {text!r}")
        out[(k, m)] = coeff
    return out


# -- matrices --------------------------------------------------------------------


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(n: int) -> list:
    return [[0] * n for _ in range(n)]


def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in cols] for row in a]


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a: list, c) -> list:
    return [[c * x for x in row] for row in a]


def is_zero(a: list) -> bool:
    return all(x == 0 for row in a for x in row)


def is_nilpotent(a: list) -> bool:
    n = len(a)
    power, e = a, 1
    while e < n:
        power, e = matmul(power, power), 2 * e
    return is_zero(power)


def block_diag(blocks) -> list:
    n = sum(len(b) for b in blocks)
    out = zeros(n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def inverse(a: list) -> list:
    """Gauss-Jordan inverse over the rationals; CheckError when singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        require(piv is not None, "matrix is singular")
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            f = work[i][c]
            if i != c and f:
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [[x.numerator if x.denominator == 1 else x for x in row[n:]] for row in work]


def jordan_block(n: int) -> list:
    return [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def x_zero(n: int) -> list:
    """The solution of X J - J X = J^2 with superdiagonal (0, -1, -2, ...)."""
    return [[-i if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def relation_holds(x: list, y: list) -> bool:
    return matmul(x, y) == add(matmul(y, x), matmul(y, y))


def epsilon_dim(n: int) -> int:
    """Dimension of the algebra generated by (x_zero(n), J_n): the paper's
    n(n+2)/4 for even n and (n+1)^2/4 for odd n."""
    return n * (n + 2) // 4 if n % 2 == 0 else (n + 1) ** 2 // 4


def epsilon_loops(n: int) -> int:
    """Loops at the single vertex of the quiver of the epsilon_n image algebra."""
    return min(n - 1, 2)


class EpsilonEvaluator:
    """Evaluates normal polynomials at epsilon_n = (x_zero(n), J_n), caching
    the monomial images y^k x^m per n."""

    def __init__(self):
        self._monomials: dict = {}

    def monomial(self, n: int, k: int, m: int) -> list:
        key = (n, k, m)
        if key not in self._monomials:
            if k:
                value = matmul(jordan_block(n), self.monomial(n, k - 1, m))
            elif m:
                value = matmul(self.monomial(n, 0, m - 1), x_zero(n))
            else:
                value = identity(n)
            self._monomials[key] = value
        return self._monomials[key]

    def vanishes(self, f: dict, n: int) -> bool:
        acc = zeros(n)
        for (k, m), c in f.items():
            acc = add(acc, scale(self.monomial(n, k, m), c))
        return is_zero(acc)


def _primitive(v: list) -> list:
    g = 0
    for a in v:
        g = gcd(g, a)
    return [a // g for a in v] if g else v


def _integral(m: list) -> list:
    d = 1
    for row in m:
        for a in row:
            d = lcm(d, Fraction(a).denominator)
    return [[int(a * d) for a in row] for row in m]


def algebra_dim(x: list, y: list) -> int:
    """Dimension of the unital algebra generated by x and y.

    Scaling a generator does not change the algebra, so both are made
    integral.  The span starts at the identity and is closed under right
    multiplication by x and y; each new element is reduced fraction-free
    against the basis so far, and every basis element is multiplied once.
    """
    n = len(x)
    gens = (_integral(x), _integral(y))
    basis: list = []  # (pivot, primitive integer vector, zero at earlier pivots)
    queue = [[int(i == j) for i in range(n) for j in range(n)]]
    while queue:
        v = queue.pop()
        for p, b in basis:
            if v[p]:
                c, bp = v[p], b[p]
                v = [a * bp - c * e for a, e in zip(v, b)]
        v = _primitive(v)
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            continue
        basis.append((pivot, v))
        m = [v[i * n:(i + 1) * n] for i in range(n)]
        queue += [[a for row in matmul(m, g) for a in row] for g in gens]
    return len(basis)


def partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def fiber_dim(parts) -> int:
    """Dimension of the centralizer of the Jordan matrix: sum of min(a, b)."""
    return sum(min(a, b) for a in parts for b in parts)
