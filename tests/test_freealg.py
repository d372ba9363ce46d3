"""Rewriting engine, multiplication calculus, series, automorphisms and text."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from jordanlab import (
    JordanAutomorphism,
    NcPoly,
    NormalPoly,
    OutOfRangeError,
    PolyParseError,
    RewriteSystem,
    UniPoly,
    alpha_coeff,
    apply_automorphism,
    compose_automorphisms,
    gs_series_coefficients,
    hilbert_dim,
    jordan_system,
    multiply,
    normal_form,
    overlaps,
    parse_poly,
    reduce_poly,
)
from jordanlab.freealg import _exponents, _index, _power
from jordanlab.scalars import cleared
from multiply_oracle import multiply as oracle_multiply
from multiply_oracle import x_power_times_y_power as oracle_expansion
from parse_oracle import parse_poly as oracle_parse_poly
from rewriting_oracle import complete, confluence_check, normal_word_count


def rand_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def rand_ncpoly(rng, max_degree=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, max_degree)))
        terms[word] = rand_rational(rng)
    return NcPoly(terms)


# -- normal form ----------------------------------------------------------------


def test_defining_relation():
    assert normal_form(parse_poly("x*y")) == NormalPoly({(1, 1): 1, (2, 0): 1})


def test_x_times_y_squared():
    # x y^2 = y^2 x + 2 y^3
    assert normal_form(parse_poly("x*y^2")) == NormalPoly({(2, 1): 1, (3, 0): 2})


def test_x_squared_times_y():
    # x^2 y = y x^2 + 2 y^2 x + 2 y^3, coefficients 1, 2, 2
    assert normal_form(parse_poly("x^2*y")) == NormalPoly(
        {(1, 2): 1, (2, 1): 2, (3, 0): 2})


def test_already_normal_unchanged():
    assert normal_form(parse_poly("y*x")) == NormalPoly({(1, 1): 1})


def test_normal_form_idempotent():
    rng = random.Random(10)
    for _ in range(25):
        f = rand_ncpoly(rng)
        nf = normal_form(f)
        assert normal_form(nf.embed()) == nf


def test_normal_form_linear():
    rng = random.Random(11)
    for _ in range(25):
        f, g = rand_ncpoly(rng), rand_ncpoly(rng)
        a, b = rand_rational(rng), rand_rational(rng)
        combined = f.scale(a) + g.scale(b)
        assert normal_form(combined) == \
            normal_form(f).scale(a) + normal_form(g).scale(b)


# -- alpha coefficients ------------------------------------------------------------


def test_alpha_base_cases():
    assert alpha_coeff(1, 1) == 1
    assert alpha_coeff(2, 1) == 1


def test_alpha_example():
    assert alpha_coeff(3, 2) == 2  # 2!/0!


def test_alpha_recurrence():
    for n in range(1, 31):
        for k in range(1, n + 2):
            expected = alpha_coeff(k, n) + (k - 1) * (alpha_coeff(k - 1, n) if k >= 2 else 0)
            assert alpha_coeff(k, n + 1) == expected


def test_alpha_closed_form():
    for n in range(1, 31):
        for k in range(1, n + 2):
            assert alpha_coeff(k, n) == factorial(n) // factorial(n - k + 1)


def test_alpha_out_of_range():
    with pytest.raises(OutOfRangeError):
        alpha_coeff(0, 3)
    with pytest.raises(OutOfRangeError):
        alpha_coeff(5, 3)


# -- multiplication ------------------------------------------------------------------


def test_multiply_example():
    f = normal_form(parse_poly("y*x"))
    g = normal_form(parse_poly("y"))
    expected = NormalPoly({(2, 1): 1, (3, 0): 1})  # y^2 x + y^3
    assert multiply(f, g) == expected
    # the normal form of the concatenated word agrees
    assert normal_form(parse_poly("y*x*y")) == expected


def test_multiply_identity():
    rng = random.Random(12)
    one = NormalPoly.one()
    for _ in range(10):
        f = normal_form(rand_ncpoly(rng))
        assert multiply(f, one) == f
        assert multiply(one, f) == f


def test_multiply_pure_y_powers():
    for a in range(4):
        for b in range(4):
            assert multiply(NormalPoly.monomial(a, 0), NormalPoly.monomial(b, 0)) \
                == NormalPoly.monomial(a + b, 0)


def engine_normal_form(f):
    """Normal form by the rewriting engine alone, mapped to NormalPoly."""
    terms = {}
    for word, coeff in reduce_poly(f, jordan_system()).items():
        m = len(word.lstrip("y"))
        k = len(word) - m
        assert word == "y" * k + "x" * m
        terms[(k, m)] = coeff
    return NormalPoly(terms)


def test_multiply_matches_engine():
    rng = random.Random(13)
    for _ in range(25):
        f, g = rand_ncpoly(rng, 3), rand_ncpoly(rng, 3)
        via_engine = engine_normal_form(f * g)
        assert multiply(normal_form(f), normal_form(g)) == via_engine
        assert normal_form(f * g) == via_engine


def rand_workload_poly(rng, terms=12, max_degree=40):
    """A NormalPoly shaped like the benchmark's products: up to 12 terms of
    degree <= 40 with coefficients p/q, |p| <= 9 and q <= 4."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        k = rng.randint(0, d)
        out[(k, d - k)] = rand_rational(rng)
    return NormalPoly(out)


def test_multiply_matches_termwise_oracle():
    rng = random.Random(16)
    for _ in range(60):
        f, g = rand_workload_poly(rng), rand_workload_poly(rng)
        assert normalized(multiply(f, g)) == oracle_multiply(f, g)


def test_multiply_fraction_free_edge_cases():
    rng = random.Random(17)
    f = rand_workload_poly(rng)
    zero = NormalPoly.zero()
    for a, b in ((zero, f), (f, zero), (zero, zero)):
        assert multiply(a, b).is_zero()
    # all-int operands: d_f = d_g = 1
    f, g = (NormalPoly({km: rng.randint(-9, 9) for km in rand_workload_poly(rng).support()})
            for _ in range(2))
    product = normalized(multiply(f, g))
    assert product == oracle_multiply(f, g)
    assert all(type(c) is int for _, c in product.items())
    cases = [
        # negative numerators: divmod rounds toward -infinity, so -1/3 has
        # remainder 2 and -1 has remainder 0
        ({(0, 1): Fraction(-3, 2), (0, 0): Fraction(1, 2)}, {(1, 0): Fraction(2, 3)},
         {(1, 1): -1, (2, 0): -1, (1, 0): Fraction(1, 3)}),
        ({(0, 1): Fraction(-7, 2)}, {(1, 0): Fraction(2, 3)},
         {(1, 1): Fraction(-7, 3), (2, 0): Fraction(-7, 3)}),
        # d = 6 cancels in every coefficient
        ({(0, 1): Fraction(3, 2)}, {(1, 0): Fraction(2, 3)}, {(1, 1): 1, (2, 0): 1}),
        # two halves add up to an integer: (x + y)/2 * y = yx/2 + y^2
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}, {(1, 0): 1},
         {(1, 1): Fraction(1, 2), (2, 0): 1}),
        # and to zero: (x - y)/2 * (y + 1) has no y^2 term
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}, {(1, 0): 1, (0, 0): 1},
         {(1, 1): Fraction(1, 2), (0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}),
    ]
    for f, g, expected in cases:
        f, g = NormalPoly(f), NormalPoly(g)
        product = normalized(multiply(f, g))
        assert dict(product.items()) == expected
        assert product == oracle_multiply(f, g)


def test_multiply_expands_once_per_term_and_y_degree(monkeypatch):
    from jordanlab import freealg

    calls = 0
    expand = freealg._expansion

    def counting(b, c):
        nonlocal calls
        calls += 1
        return expand(b, c)

    f = NormalPoly({(0, 3): 1, (2, 1): Fraction(1, 2), (1, 0): -2, (0, 0): Fraction(5, 3)})
    g = NormalPoly({(1, 0): 1, (1, 2): 3, (1, 5): Fraction(2, 3), (4, 0): 1, (4, 1): -1,
                    (0, 2): 5, (0, 7): Fraction(-1, 4)})
    monkeypatch.setattr(freealg, "_expansion", counting)
    product = multiply(f, g)
    monkeypatch.undo()
    distinct_c = len({c for c, _ in g.support()})
    assert distinct_c == 3
    assert calls == len(f.support()) * distinct_c < len(f.support()) * len(g.support())
    assert product == oracle_multiply(f, g)


def test_multiply_integer_key_edge_cases():
    """Zero operands, right factors without y (c = 0), terms that cancel,
    integral operands and sparse operands of degree 10^9, each against the
    termwise oracle."""
    zero, one = NormalPoly.zero(), NormalPoly.one()
    cases = [
        (zero, NormalPoly({(3, 2): 5})), (NormalPoly({(0, 4): 1}), zero),
        # c = 0: x^b * x^e and y^a x^b * x^e only add the x-degrees
        (NormalPoly({(2, 3): Fraction(1, 2), (0, 1): -1}), NormalPoly({(0, 4): 3, (0, 0): 1})),
        # terms that cancel: (x - y)(x + y) = x^2 + (yx + y^2) - yx - y^2 = x^2
        (NormalPoly({(0, 1): 1, (1, 0): -1}), NormalPoly({(1, 0): 1, (0, 1): 1})),
        # integral operands: d = 1
        (NormalPoly({(0, 5): 2, (1, 1): -3}), NormalPoly({(2, 3): 7, (0, 0): 1})),
        (NormalPoly({(10 ** 9, 0): 1}), NormalPoly({(0, 1): 1})),
        (NormalPoly({(10 ** 9, 0): 2, (0, 10 ** 9): Fraction(1, 3)}), one),
    ]
    for f, g in cases:
        product = keyed(normalized(multiply(f, g)))
        assert product == oracle_multiply(f, g)
    assert multiply(*cases[3]) == NormalPoly({(0, 2): 1})
    # (x + y)(x - y) = x^2 - (yx + y^2) + yx - y^2 = x^2 - 2y^2
    f, g = NormalPoly({(0, 1): 1, (1, 0): 1}), NormalPoly({(0, 1): 1, (1, 0): -1})
    assert multiply(f, g) == NormalPoly({(0, 2): 1, (2, 0): -2})
    assert (multiply(NormalPoly({(10 ** 9, 0): 1}), NormalPoly({(0, 1): 1}))
            == NormalPoly({(10 ** 9, 1): 1}))
    # x * y^(10^9) = y^(10^9) x + 10^9 y^(10^9 + 1)
    assert (multiply(NormalPoly({(0, 1): 1}), NormalPoly({(10 ** 9, 0): 1}))
            == NormalPoly({(10 ** 9, 1): 1, (10 ** 9 + 1, 0): 10 ** 9}))


def test_multiply_allocates_nothing_of_the_size_of_the_degree():
    import tracemalloc

    f = NormalPoly({(10 ** 9, 0): 2, (0, 1): Fraction(1, 3)})
    g = NormalPoly({(10 ** 9, 1): 1, (0, 10 ** 9): -1})
    tracemalloc.start()
    try:
        product = multiply(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000
    assert keyed(product) == oracle_multiply(f, g) and len(product.support()) == 5


def test_normal_form_matches_engine_on_long_words():
    rng = random.Random(15)
    for _ in range(30):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(6, 10)))
        f = NcPoly.monomial(word, rand_rational(rng))
        assert normal_form(f) == engine_normal_form(f)


def test_normal_form_rejects_foreign_letter():
    with pytest.raises(ValueError):
        normal_form(NcPoly.monomial("xzy"))


def test_x_power_times_y_power_matches_closed_form():
    """The expansion is its coefficient tuple: entry j belongs to
    y^(c+j) x^(b-j), checked against the oracle's binomial closed form."""
    from jordanlab.freealg import _x_power_times_y_power

    cases = [(b, c) for b in range(61) for c in range(13)] + [(4096, 1), (1000, 37)]
    for b, c in cases:
        expansion = _x_power_times_y_power(b, c)
        assert expansion == tuple(v for _, v in oracle_expansion(b, c))
        assert [km for km, _ in oracle_expansion(b, c)] == [
            (c + j, b - j) for j in range(len(expansion))]


def test_expansion_budget_bounds_the_coefficient_bits(monkeypatch):
    """The size bound is never below the real total of coefficient bits:
    with the budget one bit below a case's total, the case is refused.  Far
    above the budget, x^50000*y^49999 is refused without being expanded."""
    from jordanlab import freealg

    def power_product(b, c):
        return multiply(NormalPoly.monomial(0, b), NormalPoly.monomial(c, 0))

    for b, c in [(1, 1), (2, 5), (7, 1), (30, 30), (60, 2), (200, 1), (300, 700)]:
        bits = sum(v.bit_length() for v in freealg._x_power_times_y_power(b, c))
        assert freealg._bound(b, c) >= bits
        freealg._expansion.cache_clear()
        monkeypatch.setattr(freealg, "EXPANSION_BITS", bits - 1)
        with pytest.raises(OutOfRangeError):
            power_product(b, c)
        monkeypatch.undo()
        freealg._expansion.cache_clear()
        assert power_product(b, c) == oracle_multiply(NormalPoly.monomial(0, b),
                                                      NormalPoly.monomial(c, 0))
    assert power_product(0, 10 ** 9) == NormalPoly.monomial(10 ** 9, 0)
    assert power_product(10 ** 9, 0) == NormalPoly.monomial(0, 10 ** 9)
    with pytest.raises(OutOfRangeError):
        power_product(50000, 49999)
    with pytest.raises(OutOfRangeError):
        normal_form(parse_poly("x^50000*y^49999"))


def test_expansion_budget_holds_per_call(monkeypatch):
    """Each x^b*y of the 26-byte input is within the budget, the three of
    one call are not, and the refusal comes before the second expansion is
    formed.  The budget is spent per public call, nested calls included,
    and the next call has all of it again."""
    import time

    from jordanlab import freealg

    assert freealg._bound(8400, 1) <= freealg.EXPANSION_BITS < 2 * freealg._bound(8398, 1)
    start = time.perf_counter()
    with pytest.raises(OutOfRangeError):
        normal_form(parse_poly("x^8400*y+x^8399*y+x^8398*y"))
    assert time.perf_counter() - start < 5
    assert freealg._left.get() is None
    monkeypatch.setattr(freealg, "EXPANSION_BITS", freealg._bound(300, 1) * 3 // 2)
    x300, y = NormalPoly.monomial(0, 300), NormalPoly.monomial(1, 0)
    for _ in range(2):
        assert len(multiply(x300, y).support()) == 301
        assert len(normal_form(parse_poly("x^300*y")).support()) == 301
    with pytest.raises(OutOfRangeError):
        normal_form(parse_poly("x^300*y + x^300*y*x"))


def test_expansion_budget_is_per_thread():
    import threading

    from jordanlab import freealg

    token = freealg._left.set([0])  # as if a call under way had spent its budget
    try:
        with pytest.raises(OutOfRangeError):
            multiply(NormalPoly.monomial(0, 300), NormalPoly.monomial(1, 0))
        out = []
        thread = threading.Thread(target=lambda: out.append(normal_form(parse_poly("x^300*y"))))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive() and len(out[0].support()) == 301
    finally:
        freealg._left.reset(token)


def test_power_cache_is_bounded():
    from jordanlab import freealg

    maxsize = freealg._expansion.cache_info().maxsize
    assert maxsize is not None and maxsize >= 4096
    kept = freealg.EXPANSION_BITS // maxsize
    assert freealg._bound(4096, 1) > kept and freealg._expansion(4096, 1) is None
    assert freealg._bound(1000, 37) > kept and freealg._expansion(1000, 37) is None
    # every expansion of the benchmark's normal_forms pass (b, c <= 40) is kept
    assert freealg._bound(40, 40) < 2 ** 14 <= kept
    assert freealg._expansion(40, 40) == freealg._x_power_times_y_power(40, 40)


def test_multiply_associative():
    rng = random.Random(14)
    for _ in range(10):
        f = normal_form(rand_ncpoly(rng, 2))
        g = normal_form(rand_ncpoly(rng, 2))
        h = normal_form(rand_ncpoly(rng, 2))
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_long_x_run_takes_logarithmically_many_products(monkeypatch):
    from jordanlab import freealg

    calls = 0
    product = freealg.multiply

    def counting(f, g):
        nonlocal calls
        calls += 1
        return product(f, g)

    monkeypatch.setattr(freealg, "multiply", counting)
    nf = normal_form(parse_poly("x^4096*y"))
    assert calls <= 30
    # x^n y = sum_k alpha(k, n) y^k x^(n-k+1)
    assert len(nf.support()) == 4097
    for k in (1, 2, 3, 4097):
        assert nf.coefficient(k, 4097 - k) == alpha_coeff(k, 4096)


# -- the shared term core -------------------------------------------------------------


def normalized(p):
    """p, after asserting that no coefficient is stored as 0 and that each
    is an int exactly when it is integral."""
    for _, c in p.items():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    return p


def same(p, q):
    assert p == q and hash(p) == hash(q)


def test_term_core_stores_normalized_coefficients():
    rng = random.Random(21)
    phi = JordanAutomorphism(Fraction(-3, 2), UniPoly([Fraction(1, 2), 0, 2]))
    for _ in range(40):
        f, g, h = rand_ncpoly(rng), rand_ncpoly(rng), rand_ncpoly(rng)
        # construction: Fraction inputs, integral ones among them, and
        # pair lists whose terms cancel
        same(normalized(NcPoly({w: Fraction(c) for w, c in f.items()})), f)
        pairs = f.items() + [(w, -c) for w, c in g.items()] + g.items()
        same(normalized(NcPoly(pairs + [("yx", Fraction(4, 2)), ("yx", -2)])), f)
        assert NcPoly([("", Fraction(4, 2)), ("y", 0)]).items() == [("", 2)]
        assert type(NcPoly({"x": Fraction(4, 2)}).coefficient("x")) is int
        # linear operations
        same(normalized(f + g) - g, f)
        same(normalized(f - g), f + (-g))
        same(normalized(-f), f.scale(-1))
        assert normalized(f - f).is_zero() and normalized(f.scale(0)).is_zero()
        same(normalized(f.scale(Fraction(2, 3))).scale(Fraction(3, 2)), f)
        # products and maps
        same(normalized(f * (g + h)), f * g + f * h)
        nf, ng = normalized(normal_form(f)), normalized(normal_form(g))
        same(normalized(multiply(nf, ng)), normal_form(f * g))
        same(normalized(multiply(nf, ng - ng)), NormalPoly.zero())
        nh = NormalPoly(nf.items() + [(km, -c) for km, c in ng.items()] + ng.items())
        same(normalized(nh), nf)
        same(normalized(nf + ng) - ng, nf)
        same(normalized(nf.scale(Fraction(4, 3))).scale(Fraction(3, 4)), nf)
        assert normalized(nf.scale(0)).is_zero()
        same(normalized(apply_automorphism(phi, f + g)),
             apply_automorphism(phi, f) + apply_automorphism(phi, g))


def canonical(p):
    """p, after asserting that its stored form is int numerators, none
    zero, over den > 0 with gcd(content, den) = 1, and that ``cleared``
    of its coefficients returns that form unchanged."""
    nums, den = p.numerators()
    assert den > 0 and all(type(v) is int and v for v in nums.values())
    assert gcd(*nums.values(), den) == 1
    coeffs = dict(normalized(p).items())
    assert cleared([coeffs[key] for key in nums]) == (list(nums.values()), den)
    return p


def test_term_core_stores_one_canonical_denominator():
    rng = random.Random(22)
    for cls in (NcPoly, NormalPoly):
        assert cls().numerators() == ({}, 1)
    for _ in range(60):
        f, g = rand_workload_poly(rng, 8, 12), rand_workload_poly(rng, 8, 12)
        terms = f.items()
        # the constructor with Fractions, a scaled copy, a sum of two parts
        # and a difference, products by one, a square and its power
        same(canonical(NormalPoly({km: Fraction(c) for km, c in terms})), f)
        same(canonical(NormalPoly({km: 6 * c for km, c in terms}).scale(Fraction(1, 6))), f)
        same(canonical(NormalPoly(terms[::2]) + NormalPoly(terms[1::2])), f)
        same(canonical((f + g) - g), f)
        same(canonical(multiply(NormalPoly.one(), f)), canonical(multiply(f, NormalPoly.one())))
        same(canonical(multiply(f, NormalPoly.one())), f)
        same(canonical(_power(f, 2)), canonical(multiply(f, f)))
        same(canonical(_power(f, 3)), canonical(multiply(multiply(f, f), f)))
        for zero in (f - f, f.scale(0), multiply(f, g - g), f.embed() - f.embed()):
            assert canonical(zero).numerators() == ({}, 1)
        # the word side: construction, scaling, products and the embedding
        w = canonical(f.embed())
        same(w, NcPoly({"y" * k + "x" * m: c for (k, m), c in terms}))
        same(canonical(w.scale(Fraction(-4, 9))).scale(Fraction(-9, 4)), w)
        same(canonical(w * NcPoly.one()), w)
        assert type(f.coefficient(41, 0)) is int and type(w.coefficient("z")) is int
    for _ in range(500):
        f, g = rand_workload_poly(rng, 5, 10), rand_workload_poly(rng, 5, 10)
        assert canonical(multiply(f, g)) == oracle_multiply(f, g)


def test_term_core_compares_within_one_class():
    assert NcPoly({"": 1}) != NormalPoly({(0, 0): 1})
    assert NormalPoly({(0, 0): 1}) != NcPoly({"": 1})
    assert NcPoly.zero() != NormalPoly.zero()
    assert NcPoly.one() == NcPoly({"": Fraction(2, 2)})
    assert NormalPoly([((0, 1), 1), ((0, 1), -1)]) == NormalPoly.zero()


def test_term_core_rejects_floats():
    for make in (lambda: NcPoly({"x": 0.5}), lambda: NcPoly([("x", 0.0)]),
                 lambda: NormalPoly({(0, 1): 1.0}), lambda: NcPoly.one().scale(0.5),
                 lambda: NormalPoly.one().scale(2.0)):
        with pytest.raises(TypeError):
            make()


def test_normal_poly_rejects_keys_that_are_not_exponents():
    # (0, -1) once printed as 1 and times y gave 0, (-1, 2) printed as x^2,
    # and (True, 2.0) was accepted and then failed to print
    for key in ((0, -1), (-1, 2), (True, 2.0), (True, 0), (1, 2.0), ("0", 1)):
        for make in (lambda: NormalPoly({key: 1}), lambda: NormalPoly([(key, 0)]),
                     lambda: NormalPoly.monomial(*key)):
            with pytest.raises(ValueError):
                make()
    assert NormalPoly([([2, 1], 3)]) == NormalPoly.monomial(2, 1, 3)


# -- the stored keys of NormalPoly ------------------------------------------------------


def stored_form(p):
    """(numerators, denominator) as p stores them: the one place where the
    tests read the stored form (pinned in tests/test_api.py)."""
    return p._nums, p._den


def keyed(p):
    """p, after asserting that its stored keys are the ints ``_index(k, m)``
    of the keys (k, m) of ``numerators()``, and that ``==`` and ``hash``
    agree with a rebuild from ``items()``."""
    nums, den = stored_form(p)
    assert all(type(key) is int for key in nums)
    by_km, den_read = p.numerators()
    assert ({_index(k, m): v for (k, m), v in by_km.items()}, den_read) == (nums, den)
    same(NormalPoly(p.items()), p)
    return p


def x_degree(p):
    return max((m for _, m in p.support()), default=-1)


def triangular(d):
    return d * (d + 1) // 2


def test_index_numbers_the_normal_basis_by_degree_then_k():
    for k in range(60):
        for m in range(60):
            key = _index(k, m)
            assert type(key) is int and _exponents(key) == (k, m)
    # the keys of degree d fill [T(d), T(d+1)) in the order of k
    for d in range(60):
        assert [_index(k, d - k) for k in range(d + 1)] == list(range(triangular(d),
                                                                      triangular(d + 1)))
    assert [_index(*_exponents(key)) for key in range(2000)] == list(range(2000))
    # isqrt decodes exactly far beyond float precision
    for d in (10 ** 9, 10 ** 18, 10 ** 30):
        for k in (0, 1, d // 3, d - 1, d):
            assert _exponents(_index(k, d - k)) == (k, d - k)
        assert _index(0, d) == triangular(d) and _index(d, 0) == triangular(d + 1) - 1


def test_normal_poly_stores_the_index_of_its_exponents():
    rng = random.Random(23)
    phi = JordanAutomorphism(Fraction(-3, 2), UniPoly([Fraction(1, 2), 0, 2]))
    assert stored_form(NormalPoly.zero()) == ({}, 1)
    # 1, x, y and x^2 are the basis elements 0, 1, 2 and 3
    for key, (k, m) in enumerate(((0, 0), (0, 1), (1, 0), (0, 2))):
        assert stored_form(NormalPoly.monomial(k, m, 3)) == ({key: 3}, 1)
    assert stored_form(NormalPoly({(0, 1): 3, (1, 0): Fraction(1, 2)})) == ({1: 6, 2: 1}, 2)
    for _ in range(60):
        f, g = keyed(rand_workload_poly(rng, 8, 12)), keyed(rand_workload_poly(rng, 8, 12))
        # a top x-degree that cancels
        top = NormalPoly([(km, c) for km, c in f.items() if km[1] == x_degree(f)])
        rest = keyed(f - top)
        assert x_degree(rest) < x_degree(f)
        same(keyed(rest + top), f)
        for zero in (f - f, f.scale(0), f + (-f)):
            assert stored_form(zero) == ({}, 1)
        # the linear operations, products, powers and the algebra maps
        u, v = rand_ncpoly(rng), rand_ncpoly(rng)
        for p in (f + g, f - g, f.scale(Fraction(-2, 7)), -f, multiply(f, g), _power(f, 3),
                  normal_form(u + v), apply_automorphism(phi, u - v),
                  normal_form(u.scale(Fraction(1, 2)) + u.scale(Fraction(-1, 2)))):
            keyed(p)


def test_multiply_adds_the_x_degrees():
    """The x-degree of fg is that of f plus that of g; 500 products against
    the termwise oracle."""
    rng = random.Random(24)
    for _ in range(500):
        f, g = rand_workload_poly(rng, 5, 10), rand_workload_poly(rng, 5, 10)
        product = keyed(multiply(f, g))
        assert product == oracle_multiply(f, g)
        assert x_degree(product) == x_degree(f) + x_degree(g)


def test_coefficient_reads_no_key_of_another_exponent():
    p = keyed(NormalPoly({(1, 0): 5, (0, 2): Fraction(1, 2), (3, 1): -1}))
    assert p.coefficient(1, 0) == 5
    for k, m in ((0, 3), (2, -3), (-1, 6), (0, 7), (4, -1), (-1, 0)):
        assert p.coefficient(k, m) == 0
    # pairs outside k, m >= 0 whose _index is the key of a term of q
    q = keyed(NormalPoly({(0, 0): 7, (1, 0): 5, (0, 2): 1, (3, 1): -1}))
    for km, alias in (((-1, 2), (0, 0)), ((0, -1), (0, 0)), ((-3, 5), (0, 0)),
                      ((-1, 3), (1, 0)), ((2, -1), (0, 2)), ((7, -4), (3, 1)),
                      ((-2, 7), (3, 1))):
        assert _index(*km) == _index(*alias) and q.coefficient(*alias) != 0
        assert q.coefficient(*km) == 0
    rng = random.Random(25)
    for _ in range(40):
        f = keyed(rand_workload_poly(rng, 8, 12))
        top, coeffs = x_degree(f), dict(f.items())
        for k in range(-2, 42):
            for m in range(-1, top + 3):
                assert f.coefficient(k, m) == coeffs.get((k, m), 0)


def test_normal_poly_reads_back_what_it_was_given():
    """items(), coefficient(), support(), degree, numerators() and str from
    the int keys, against a model keyed by (k, m)."""
    rng = random.Random(26)
    for _ in range(60):
        model = {}
        for _ in range(rng.randint(0, 10)):
            k, m = rng.randint(0, 30), rng.randint(0, 30)
            model[(k, m)] = model.get((k, m), 0) + rand_rational(rng)
        model = {km: c for km, c in model.items() if c}
        p = NormalPoly(model)
        order = sorted(model, key=lambda km: (-sum(km), km[0]))
        assert p.items() == [(km, model[km]) for km in order]
        assert p.support() == order
        assert p.degree == max(map(sum, model), default=-1)
        assert all(p.coefficient(*km) == c for km, c in model.items())
        nums, den = p.numerators()
        assert set(nums) == set(model)
        assert (list(nums.values()), den) == cleared([model[km] for km in nums])
        words = NcPoly({"y" * k + "x" * m: c for (k, m), c in model.items()})
        assert p.embed() == words and str(p) == str(words)


# -- overlaps and confluence -----------------------------------------------------------


def test_jordan_no_overlaps():
    assert overlaps(jordan_system()) == []


def test_self_overlap():
    rs = RewriteSystem(("y", "x"), (("xx", NcPoly({"y": 1})),))
    assert overlaps(rs) == [("xxx", 0, 0)]


def test_two_rule_overlaps():
    rs = RewriteSystem(("y", "x"), (
        ("xy", NcPoly()),
        ("yx", NcPoly()),
    ))
    assert sorted(w for w, _, _ in overlaps(rs)) == ["xyx", "yxy"]


def test_jordan_confluent_vacuously():
    report = confluence_check(jordan_system(), 8)
    assert report.confluent
    assert report.checks == ()


def test_commutative_toy_confluent():
    rs = RewriteSystem(("y", "x"), (("xy", NcPoly({"yx": 1})),))
    assert confluence_check(rs, 8).confluent


def test_inconsistent_orientation_rejected():
    with pytest.raises(ValueError):
        RewriteSystem(("y", "x"), (
            ("xy", NcPoly({"yx": 1, "yy": 1})),
            ("yx", NcPoly({"xy": 1})),
        ))


def test_nonconfluent_toy_detected_and_completed():
    # xx -> y alone is not confluent: xxx rewrites to both yx and xy
    rs = RewriteSystem(("y", "x"), (("xx", NcPoly({"y": 1})),))
    report = confluence_check(rs, 6)
    assert not report.confluent
    completed = complete(rs, 6)
    assert confluence_check(completed, 6).confluent
    assert len(completed.rules) > len(rs.rules)


# -- graded counting ---------------------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_dim(0) == 1
    assert hilbert_dim(1) == 2
    assert hilbert_dim(5) == 6


def test_hilbert_matches_normal_word_count():
    rs = jordan_system()
    for d in range(31):
        assert hilbert_dim(d) == normal_word_count(rs, d)


def test_gs_examples():
    assert gs_series_coefficients(2, 1, 5) == [1, 2, 3, 4, 5, 6]
    assert gs_series_coefficients(1, 0, 3) == [1, 1, 1, 1]
    assert gs_series_coefficients(2, 0, 3) == [1, 2, 4, 8]


def test_hilbert_matches_gs_series():
    coeffs = gs_series_coefficients(2, 1, 30)
    for d in range(31):
        assert hilbert_dim(d) == d + 1 == coeffs[d]


# -- automorphisms -----------------------------------------------------------------------


def rand_automorphism(rng):
    alpha = Fraction(0)
    while alpha == 0:
        alpha = rand_rational(rng)
    p = UniPoly([rand_rational(rng) for _ in range(rng.randint(0, 3))])
    return JordanAutomorphism(alpha, p)


def test_apply_simple_shift():
    phi = JordanAutomorphism(1, UniPoly((0, 1)))  # x -> x + y
    assert apply_automorphism(phi, parse_poly("x")) == \
        NormalPoly({(0, 1): 1, (1, 0): 1})


def test_automorphism_images_are_the_normal_forms_of_the_substitutions():
    rng = random.Random(17)
    for _ in range(30):
        phi = rand_automorphism(rng)
        x_image = NcPoly({"x": phi.alpha, **{"y" * i: c for i, c in enumerate(phi.p.coeffs)}})
        assert apply_automorphism(phi, parse_poly("x")) == normal_form(x_image)
        assert apply_automorphism(phi, parse_poly("y")) == normal_form(NcPoly({"y": phi.alpha}))


def test_relation_preserved():
    rng = random.Random(15)
    rel = parse_poly("x*y - y*x - y^2")
    for _ in range(20):
        phi = rand_automorphism(rng)
        assert apply_automorphism(phi, rel).is_zero()


def test_relation_maps_to_alpha_squared_multiple():
    rel = parse_poly("x*y - y*x")  # maps to alpha^2 * (yx + y^2) - image of y^2
    phi = JordanAutomorphism(3, UniPoly.zero())
    image = apply_automorphism(phi, parse_poly("x*y - y*x - y^2"))
    assert image.is_zero()
    # without the y^2 part the image is alpha^2 * y^2
    assert apply_automorphism(phi, rel) == NormalPoly({(2, 0): 9})


def test_compose_identity():
    rng = random.Random(16)
    ident = JordanAutomorphism.identity()
    for _ in range(10):
        phi = rand_automorphism(rng)
        assert compose_automorphisms(ident, phi) == phi
        assert compose_automorphisms(phi, ident) == phi


def test_compose_translations():
    shift = JordanAutomorphism(1, UniPoly((0, 1)))
    assert compose_automorphisms(shift, shift) == \
        JordanAutomorphism(1, UniPoly((0, 2)))


def test_inverse():
    rng = random.Random(17)
    for _ in range(15):
        phi = rand_automorphism(rng)
        assert compose_automorphisms(phi, phi.inverse()) == JordanAutomorphism.identity()
        assert compose_automorphisms(phi.inverse(), phi) == JordanAutomorphism.identity()


def test_apply_respects_composition():
    rng = random.Random(18)
    for _ in range(10):
        a, b = rand_automorphism(rng), rand_automorphism(rng)
        f = rand_ncpoly(rng, 3)
        composed = apply_automorphism(compose_automorphisms(a, b), f)
        sequential = apply_automorphism(a, apply_automorphism(b, f).embed())
        assert composed == sequential


def test_automorphism_is_algebra_map():
    rng = random.Random(19)
    for _ in range(12):
        phi = rand_automorphism(rng)
        f, g = rand_ncpoly(rng, 2), rand_ncpoly(rng, 2)
        lhs = apply_automorphism(phi, f * g)
        rhs = multiply(apply_automorphism(phi, f), apply_automorphism(phi, g))
        assert lhs == rhs


def test_zero_alpha_rejected():
    with pytest.raises(ValueError):
        JordanAutomorphism(0, UniPoly.zero())


# -- text form ----------------------------------------------------------------------------


def test_parse_print_round_trip():
    for text in ["x^2*y - 2*y^2*x", "y*x + y^2", "3/2*x + 1", "-x + y^3"]:
        poly = parse_poly(text)
        assert parse_poly(str(poly)) == poly


def test_print_normal_poly():
    assert str(normal_form(parse_poly("x*y"))) == "y*x + y^2"
    assert str(NormalPoly({(0, 2): 1, (1, 1): 2, (2, 0): 2})) == \
        "x^2 + 2*y*x + 2*y^2"


def test_parse_errors():
    # whitespace may not split a number or join two factors
    for bad in ["", "x^0", "z", "2**x", "x +", "1/0", "1 2", "x y", "2x", "x2", "x^2^3",
                "x*-y", "+-x", "- -x", "\u0663 \u0663"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_rejects_over_long_numbers():
    # the one intended difference from the oracle, which leaks int()'s ValueError
    for bad in ["9" * 5000, "x^" + "9" * 5000, "1/" + "9" * 5000, "x - " + "9" * 5000 + "*y"]:
        with pytest.raises(PolyParseError, match="digits is too long"):
            parse_poly(bad)
        with pytest.raises(ValueError):
            oracle_parse_poly(bad)


def test_parse_allows_whitespace_between_tokens():
    assert parse_poly(" - 3 / 2 * x ^ 2 *\ty + y ") == NcPoly({"xxy": Fraction(-3, 2), "y": 1})


# Differential test against the recursive-descent parser the term pattern
# replaced (tests/parse_oracle.py).  Strings are joins of term-like pieces
# and separators, some of them invalid, and 40% get one random edit over
# the alphabet; the separators "" and " " make later terms without a sign.
FUZZ_ALPHABET = "xyzX0123456789\u0663/*^+-. \t"
FUZZ_TERMS = ("x", "y", "x^2", "y ^ 3", "2*x", "3/2", "0", "1/0", "x^0", "12*y*x",
              "\u0663*x", "x*y^10", "7 / 4 * y", "x*\ty", "4", "05*y^01", "x*", "2 x", "z",
              "X", "1.5", "x^")
FUZZ_SEPS = (" + ", " - ") * 4 + ("+", "-") * 2 + ("\t+ ", "-  ", "*", "", " ", "^2", "/", "--")


def fuzz_text(rng) -> str:
    k = rng.randint(1, 4)
    seps = rng.choices(FUZZ_SEPS, k=k)
    text = "".join(s + t for s, t in zip(seps, rng.choices(FUZZ_TERMS, k=k)))
    if rng.random() < 0.7:
        text = text[len(seps[0]):]  # most strings start with a term
    if rng.random() < 0.4:
        pos = rng.randrange(len(text) + 1)
        text = text[:pos] + rng.choice(FUZZ_ALPHABET) + text[pos + rng.randint(0, 1):]
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except PolyParseError:
        return PolyParseError


def test_parse_matches_recursive_descent_oracle():
    rng = random.Random(2013)
    texts = [fuzz_text(rng) for _ in range(50_000)]
    outcomes = [parse_outcome(parse_poly, text) for text in texts]
    mismatches = [text for text, got in zip(texts, outcomes)
                  if got != parse_outcome(oracle_parse_poly, text)]
    assert mismatches == []
    assert sum(got is not PolyParseError for got in outcomes) >= len(texts) // 20
