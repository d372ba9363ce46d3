"""Rewriting engine, multiplication calculus, series and automorphisms."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

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
    complete,
    compose_automorphisms,
    confluence_check,
    gs_series_coefficients,
    hilbert_dim,
    jordan_system,
    multiply,
    normal_form,
    overlaps,
    parse_poly,
    reduce_poly,
)


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


def test_normal_form_matches_engine_on_long_words():
    rng = random.Random(15)
    for _ in range(30):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(6, 10)))
        f = NcPoly.monomial(word, rand_rational(rng))
        assert normal_form(f) == engine_normal_form(f)


def test_normal_form_rejects_foreign_letter():
    with pytest.raises(ValueError):
        normal_form(NcPoly.monomial("xzy"))


def test_power_cache_is_bounded():
    from jordanlab.freealg import _x_power_times_y_power

    maxsize = _x_power_times_y_power.cache_info().maxsize
    assert maxsize is not None and maxsize >= 4096


def test_multiply_associative():
    rng = random.Random(14)
    for _ in range(10):
        f = normal_form(rand_ncpoly(rng, 2))
        g = normal_form(rand_ncpoly(rng, 2))
        h = normal_form(rand_ncpoly(rng, 2))
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


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
    for bad in ["", "x^0", "z", "2**x", "x +", "1/0"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)
