"""Tests for rational parsing, sparse polynomials, and truncated series."""

import math
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
    assert p.total_degree() == 2
    assert p.evaluate({x: Fraction(2), y: Fraction(1, 3)}) == 4 + 1 - Fraction(1, 2)

    assert MultiPoly.zero().terms == {}
    assert MultiPoly.one().constant_value() == 1
    assert (p - p).terms == {}
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
    assert all(type(c) is int for c in prod.terms.values()) and prod.den == 1
    # the y-terms cancel in the product, x and y both stay
    prod = (px + py) * (px - py)
    assert prod == MultiPoly((x, y), {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    assert prod.vars == (x, y)
    for zero in (MultiPoly.zero() * (px + py), (px * py) * MultiPoly.zero()):
        assert zero == MultiPoly((x, y), {})
        assert zero.vars == () and zero.terms == {} and zero.den == 1
    # coefficients are int numerators over one denominator, in lowest terms
    half = (px * 2 + 2) * Fraction(1, 2)
    assert half == px + 1 and half.den == 1 and hash(half) == hash(px + 1)
    q = MultiPoly((x,), {(1,): Fraction(2, 4)})
    assert q.den == 2 and q.terms == {(1,): 1}
    # a constant polynomial equals its value, so it hashes like it too
    for c in (2, Fraction(1, 2), 0, Fraction(-7, 3)):
        const = MultiPoly.const(c)
        assert const == c and hash(const) == hash(c) and len({const, c}) == 1
    assert len({MultiPoly.zero(), px - px, 0, Fraction(0)}) == 1
    cube = ((px + 1) * Fraction(1, 2)) ** 3
    assert cube.den == 8 and cube.terms == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
    # the denominators of a product cancel against the numerators' contents
    prod = ((px * 2 + 2) * Fraction(1, 3)) * ((py * 3 + 3) * Fraction(1, 2))
    assert prod == (px + 1) * (py + 1) and prod.den == 1
    rng = random.Random(31)
    for _ in range(20):
        p, q = _rand_poly(rng, (x, y)), _rand_poly(rng, (x,))
        img = {x: _rand_poly(rng, (y,), nterms=2, maxdeg=2), y: q}
        for r in (p + q, p - q, p * q, p.substitute(img)):
            assert r.den > 0 and math.gcd(r.den, *r.terms.values()) == 1


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
    """Reference expansion through MultiPoly.__mul__ and __pow__."""
    out = MultiPoly.zero()
    for e, c in p.terms.items():
        term = MultiPoly.const(Fraction(c, p.den))
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
        assert sub.vars == ref.vars and sub.terms == ref.terms and sub.den == ref.den
        assert all(type(c) is int for c in sub.terms.values())
        for _ in range(3):
            a = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in (y, s, t)}
            inner = {v: MultiPoly.coerce(img).evaluate(a) for v, img in images.items()}
            assert sub.evaluate(a) == p.evaluate(inner)
    assert sub.terms == {} and sub.vars == ()


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


# An independent reference for the polynomial core: a polynomial is a plain
# dict from monomials, sorted tuples of (variable, exponent) pairs, to nonzero
# Fractions, with schoolbook arithmetic that shares no code with MultiPoly.


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for v, k in mb:
                exps[v] = exps.get(v, 0) + k
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, images):
    out = {}
    for m, c in a.items():
        term = {(): c}
        for v, k in m:
            term = _ref_mul(term, _ref_pow(images[v], k))
        out = _ref_add(out, term)
    return out


def _ref_evaluate(a, point):
    total = Fraction(0)
    for m, c in a.items():
        for v, k in m:
            c *= point[v] ** k
        total += c
    return total


def _ref_of(p):
    """The reference dict of a MultiPoly, read from its numerators and den."""
    return {
        tuple((v, k) for v, k in zip(p.vars, e) if k): Fraction(c, p.den)
        for e, c in p.terms.items()
    }


def _poly_of(a):
    """The MultiPoly of a reference dict, through the rational constructor."""
    vs = sorted({v for m in a for v, _ in m})
    return MultiPoly(vs, {tuple(dict(m).get(v, 0) for v in vs): c for m, c in a.items()})


def _ref_rand(rng, vs, nterms=4, maxdeg=3, dens=(1, 2, 3, 5, 7, 9)):
    out = {}
    for _ in range(nterms):
        m = tuple((v, k) for v in vs if (k := rng.randint(0, maxdeg)))
        out = _ref_add(out, {m: Fraction(rng.randint(-9, 9), rng.choice(dens))})
    return out


def test_multipoly_matches_plain_dict_reference():
    rng = random.Random(41)
    x, y, z, s, t = (fresh_var(n) for n in ("rx", "ry", "rz", "rs", "rt"))
    for _ in range(25):
        a, b = _ref_rand(rng, (x, y, z)), _ref_rand(rng, (x, z))
        pa, pb = _poly_of(a), _poly_of(b)
        assert _ref_of(pa) == a and _ref_of(pb) == b
        assert _ref_of(pa + pb) == _ref_add(a, b)
        assert _ref_of(pa - pb) == _ref_add(a, {m: -c for m, c in b.items()})
        assert _ref_of(pa * pb) == _ref_mul(a, b)
        n = rng.randint(0, 4)
        assert _ref_of(pb**n) == _ref_pow(b, n)
        point = {v: Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 7, 9))) for v in (x, y, z)}
        assert pa.evaluate(point) == _ref_evaluate(a, point)
        assert (pa * pb).evaluate(point) == _ref_evaluate(_ref_mul(a, b), point)
    # two-variable images over /7 and /9, negative coefficients, zero images
    image_sets = [
        {x: {((s, 1),): Fraction(-2, 7), ((t, 1),): Fraction(5, 9), (): Fraction(-1, 63)},
         y: {((s, 1), (t, 1)): Fraction(-4, 9), (): Fraction(3, 7)},
         z: {((t, 2),): Fraction(1, 7)}},
        {x: {}, y: {((s, 1),): Fraction(-1, 7), (): Fraction(2, 9)}, z: {(): Fraction(-5, 9)}},
        {x: {((t, 1),): Fraction(1, 3)}, y: {((t, 1),): Fraction(1, 3)}, z: {}},
    ]
    for _ in range(8):
        images = _ref_rand(rng, (s, t), nterms=2, maxdeg=2, dens=(7, 9))
        image_sets.append({x: images, y: _ref_rand(rng, (s,), 2, 1, (9,)), z: {}})
    for images in image_sets:
        for _ in range(3):
            a = _ref_rand(rng, (x, y, z))
            want = _ref_substitute(a, images)
            got = _poly_of(a).substitute({v: _poly_of(img) for v, img in images.items()})
            assert _ref_of(got) == want
    # affine images over one shared denominator
    for den in (1, 6, 7, 9):
        for _ in range(4):
            a = _ref_rand(rng, (x, y, z))
            lin = {v: {w: rng.randint(-9, 9) for w in (None, s, t)} for v in (x, y, z)}
            images = {
                v: {((w, 1),) if w is not None else (): Fraction(c, den)
                    for w, c in img.items() if c}
                for v, img in lin.items()
            }
            pa = _poly_of(a)
            got = compose_affine(pa, {v: lin[v] for v in pa.vars}, den)
            assert _ref_of(got) == _ref_substitute(a, images)


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

