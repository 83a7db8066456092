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


def test_multipoly_pow():
    x = fresh_var("x")
    p = MultiPoly.variable(x) + MultiPoly.one()
    assert p ** 0 == MultiPoly.one()
    assert p ** 1 == p
    q = p ** 3
    assert q.evaluate({x: Fraction(2)}) == 27
    with pytest.raises(ValueError):
        p ** -1


def test_multipoly_substitute_composes():
    rng = random.Random(5)
    x, y = fresh_var("x"), fresh_var("y")
    for _ in range(10):
        p = _rand_poly(rng, (x, y))
        img = _rand_poly(rng, (y,), nterms=2, maxdeg=2)
        sub = p.substitute({x: img, y: MultiPoly.variable(y)})
        for _ in range(3):
            a = {y: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
            inner = img.evaluate(a)
            assert sub.evaluate(a) == p.evaluate({x: inner, y: a[y]})


def test_multipoly_substitute_missing_image():
    x, y = fresh_var("x"), fresh_var("y")
    p = MultiPoly.variable(x) * MultiPoly.variable(y)
    with pytest.raises(ValueError):
        p.substitute({x: MultiPoly.one()})


def test_compose_affine():
    x, y, t = fresh_var("x"), fresh_var("y"), fresh_var("t")
    p = MultiPoly.variable(x) * MultiPoly.variable(y)
    ximg = MultiPoly.affine(Fraction(1), {t: Fraction(2)})
    yimg = MultiPoly.affine(Fraction(3), {t: Fraction(-1)})
    out = compose_affine(p, {x: ximg, y: yimg})
    assert out.evaluate({t: Fraction(1, 2)}) == Fraction(2) * Fraction(5, 2)
    with pytest.raises(ValueError):
        compose_affine(p, {x: p, y: yimg})


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


def test_series_exp():
    z = _series(8, {1: Fraction(1)})
    e = z.exp()
    fact = 1
    for m in range(1, 9):
        fact *= m
        assert e.coefficient(m) == Fraction(1, fact)

    # exp turns addition into multiplication
    w = _series(8, {2: Fraction(1, 3)})
    lhs = (z + w).exp()
    rhs = z.exp() * w.exp()
    assert lhs.coeffs == rhs.coeffs

    with pytest.raises(ValueError):
        TruncatedSeries.constant(Fraction(1), 4).exp()


def test_series_z_derivative():
    s = _series(5, {0: Fraction(1), 2: Fraction(1, 4), 3: Fraction(2)})
    d = s.z_derivative_times_z()
    assert d.coefficient(0) == 0
    assert d.coefficient(2) == Fraction(1, 2)
    assert d.coefficient(3) == 6


def test_series_lift():
    s = _series(3, {0: Fraction(1), 2: Fraction(1, 24)})
    lifted = s.lift()
    assert lifted.coefficient(2).constant_value() == Fraction(1, 24)
    assert lifted.coefficient(1).is_zero()
