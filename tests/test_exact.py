"""Tests for rational parsing, sparse polynomials, and truncated series."""

import random
from fractions import Fraction

import pytest

from flatvol.exact import (
    MultiPoly,
    TruncatedSeries,
    compose_affine,
    format_rational,
    fresh_var,
    parse_rational,
    var_name,
)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7") == Fraction(7)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational(" 9/10 ") == Fraction(9, 10)

    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("a/b")
    with pytest.raises(ValueError):
        parse_rational("")


def test_format_rational_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        q = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_var_registry():
    v = fresh_var("t")
    w = fresh_var("t")
    assert v != w
    assert var_name(v) == var_name(w) == "t"
    # unnamed ids store nothing and render by number
    u = fresh_var()
    assert u not in (v, w)
    assert var_name(u) == f"x{u}"


def _rand_poly(rng, vs, nterms=4, maxdeg=3):
    p = MultiPoly.zero()
    for _ in range(nterms):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        term = MultiPoly.const(coeff)
        for v in vs:
            term = term * MultiPoly.variable(v) ** rng.randint(0, maxdeg)
        p = p + term
    return p


def test_multipoly_basics():
    x, y = fresh_var("x"), fresh_var("y")
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    p = px * px + py * Fraction(3) - MultiPoly.const(Fraction(1, 2))
    assert p.degree_in(x) == 2
    assert p.degree_in(y) == 1
    assert p.total_degree() == 2
    assert not p.is_constant()
    assert p.evaluate({x: Fraction(2), y: Fraction(1, 3)}) == 4 + 1 - Fraction(1, 2)

    assert MultiPoly.zero().is_zero()
    assert MultiPoly.one().constant_value() == 1
    assert (p - p).is_zero()
    assert p == p + MultiPoly.zero()


def test_multipoly_ring_axioms():
    rng = random.Random(23)
    x, y, z = fresh_var("x"), fresh_var("y"), fresh_var("z")
    pts = [
        {x: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
         y: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
         z: Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        for _ in range(5)
    ]
    for _ in range(20):
        p = _rand_poly(rng, (x, y, z))
        q = _rand_poly(rng, (x, y, z))
        r = _rand_poly(rng, (x, z))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p * (q * r) == (p * q) * r
        for a in pts:
            assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
            assert (p - q).evaluate(a) == p.evaluate(a) - q.evaluate(a)


def test_multipoly_product_normal_form():
    # products skip renormalization, so cancellation and zero factors must
    # still give the normal form a direct construction has
    x, y = fresh_var("nx"), fresh_var("ny")
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    prod = (px + 1) * (px - 1)
    assert prod == MultiPoly((x,), {(2,): Fraction(1), (0,): Fraction(-1)})
    assert prod.vars == (x,)
    assert all(type(c) is Fraction for c in prod.terms.values())
    # the y-terms cancel in the product, x and y both stay
    prod = (px + py) * (px - py)
    assert prod == MultiPoly((x, y), {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    assert prod.vars == (x, y)
    for zero in (MultiPoly.zero() * (px + py), (px * py) * MultiPoly.zero()):
        assert zero == MultiPoly((x, y), {})
        assert zero.vars == () and zero.terms == {}
        assert zero.is_zero() and zero.is_constant()


def test_multipoly_pow():
    x = fresh_var("x")
    p = MultiPoly.variable(x) + MultiPoly.one()
    assert p ** 0 == MultiPoly.one()
    assert p ** 1 == p
    q = p ** 3
    assert q.evaluate({x: Fraction(2)}) == 27
    with pytest.raises(ValueError):
        p ** -1


def _substitute_by_products(p, images):
    """Reference expansion through MultiPoly.__mul__ and __pow__ on Fractions."""
    out = MultiPoly.zero()
    for e, c in p.terms.items():
        term = MultiPoly.const(c)
        for v, k in zip(p.vars, e):
            term = term * MultiPoly.coerce(images[v]) ** k
        out = out + term
    return out


def test_multipoly_substitute_composes():
    rng = random.Random(5)
    x, y, s, t = fresh_var("x"), fresh_var("y"), fresh_var("s"), fresh_var("t")
    ps, pt = MultiPoly.variable(s), MultiPoly.variable(t)
    cases = []
    for _ in range(10):
        p = _rand_poly(rng, (x, y))
        img = _rand_poly(rng, (y,), nterms=2, maxdeg=2)
        cases.append((p, {x: img, y: MultiPoly.variable(y)}))
    # two-variable images over /7 and /9 with negative coefficients
    mixed = {x: ps * Fraction(-2, 7) + pt * Fraction(5, 9) - Fraction(1, 63),
             y: ps * pt * Fraction(-4, 9) + Fraction(3, 7)}
    for _ in range(5):
        cases.append((_rand_poly(rng, (x, y)), mixed))
    p = _rand_poly(rng, (x, y))
    cases.append((p, {x: MultiPoly.zero(), y: ps * Fraction(-1, 7) + Fraction(2, 9)}))
    cases.append((p, {x: Fraction(-5, 9), y: MultiPoly.const(Fraction(4, 7))}))
    third = pt * Fraction(1, 3)
    cases.append((MultiPoly.variable(x) - MultiPoly.variable(y), {x: third, y: third}))
    for p, images in cases:
        sub = p.substitute(images)
        ref = _substitute_by_products(p, images)
        assert sub.vars == ref.vars and sub.terms == ref.terms
        assert all(type(c) is Fraction for c in sub.terms.values())
        for _ in range(3):
            a = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in (y, s, t)}
            inner = {v: MultiPoly.coerce(img).evaluate(a) for v, img in images.items()}
            assert sub.evaluate(a) == p.evaluate(inner)
    assert sub.is_zero() and sub.vars == ()


def test_multipoly_substitute_missing_image():
    x, y = fresh_var("x"), fresh_var("y")
    p = MultiPoly.variable(x) * MultiPoly.variable(y)
    with pytest.raises(ValueError):
        p.substitute({x: MultiPoly.one()})


def test_compose_affine():
    x, y, t, u = fresh_var("x"), fresh_var("y"), fresh_var("t"), fresh_var("u")
    p = MultiPoly.variable(x) * MultiPoly.variable(y)
    # x = 1 + 2t and y = 3 - t, both over the denominator 1
    out = compose_affine(p, {x: {None: 1, t: 2}, y: {t: -1, None: 3}}, 1)
    assert out.evaluate({t: Fraction(1, 2)}) == Fraction(2) * Fraction(5, 2)
    # images over a shared denominator agree with the general substitution
    p = p * Fraction(3, 4) + MultiPoly.variable(x) ** 2 - Fraction(1, 5)
    images = {x: {None: 3, t: -6, u: 4}, y: {u: 5}}
    polys = {v: MultiPoly.affine(Fraction(img.get(None, 0), 6),
                                 {w: Fraction(c, 6) for w, c in img.items() if w is not None})
             for v, img in images.items()}
    assert compose_affine(p, images, 6) == p.substitute(polys)


def _series(order, sparse):
    coeffs = [Fraction(0)] * (order + 1)
    for k, c in sparse.items():
        coeffs[k] = c
    return TruncatedSeries(coeffs, order)


def test_series_arithmetic():
    s = _series(6, {0: Fraction(1), 2: Fraction(1)})
    assert (s * s).coefficient(4) == 1
    assert (s * s).coefficient(2) == 2
    assert s.pow(3).coefficient(2) == 3

    inv = s.inverse()
    prod = s * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(m) == 0 for m in range(1, 7))


def test_series_z_derivative():
    s = _series(5, {0: Fraction(1), 2: Fraction(1, 4), 3: Fraction(2)})
    d = s.z_derivative_times_z()
    assert d.coefficient(0) == 0
    assert d.coefficient(2) == Fraction(1, 2)
    assert d.coefficient(3) == 6

