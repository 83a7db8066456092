"""Tests for cascade domains, vertex enumeration, and exact integration."""

import random
from fractions import Fraction

import pytest

from flatvol.exact import MultiPoly, fresh_var
from flatvol.polytopes import (
    Block,
    CascadePolytope,
    enumerate_vertices,
    integrate,
    integrate_over_simplex,
    lattice_sum,
    parametrize,
    triangulate,
)


def _simplex_dom(nvars, level, prefix="s"):
    vs = tuple(fresh_var(f"{prefix}{i}") for i in range(nvars))
    return vs, CascadePolytope((Block(vs, MultiPoly.const(Fraction(level))),))


def test_block_validation():
    v = fresh_var("bv")
    with pytest.raises(ValueError):
        Block((), MultiPoly.one())
    with pytest.raises(ValueError):
        Block((v, v), MultiPoly.one())
    with pytest.raises(ValueError):
        Block((v,), MultiPoly.variable(v) * MultiPoly.variable(v))  # not affine


def test_cascade_ordering_rules():
    x, y, z = fresh_var("cx"), fresh_var("cy"), fresh_var("cz")
    # later block may use an earlier block's variable
    CascadePolytope(
        (Block((x, y), MultiPoly.one()), Block((z,), MultiPoly.variable(x)))
    )
    # but not the other way round
    with pytest.raises(ValueError):
        CascadePolytope(
            (Block((z,), MultiPoly.variable(x)), Block((x, y), MultiPoly.one()))
        )
    # reuse across blocks is an error
    with pytest.raises(ValueError):
        CascadePolytope(
            (Block((x, y), MultiPoly.one()), Block((y,), MultiPoly.one()))
        )


def test_cascade_external_parameters():
    # a level variable no block introduces is an ancestor parameter
    x, y, t = fresh_var("ex"), fresh_var("ey"), fresh_var("et")
    dom = CascadePolytope((Block((x, y), MultiPoly.variable(t)),))
    assert dom.external_vars == (t,)
    with pytest.raises(ValueError):
        parametrize(dom)
    with pytest.raises(ValueError):
        integrate(MultiPoly.one(), dom)


def test_simplex_measure_and_moment():
    vs, dom = _simplex_dom(3, 1, "m")
    assert integrate(MultiPoly.one(), dom) == Fraction(1, 2)
    assert integrate(MultiPoly.variable(vs[0]), dom) == Fraction(1, 6)


def test_scaled_level_closed_forms():
    c = Fraction(5, 7)
    vs, dom = _simplex_dom(3, c, "c")
    # measure c^2/2 and first moment c^3/6
    assert integrate(MultiPoly.one(), dom) == c ** 2 / 2
    assert integrate(MultiPoly.variable(vs[0]), dom) == c ** 3 / 6


def test_dirichlet_monomials():
    rng = random.Random(17)
    for _ in range(10):
        d = rng.randint(1, 3)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        vs, dom = _simplex_dom(d + 1, c, "d")
        ms = [rng.randint(0, 3) for _ in range(d)]
        p = MultiPoly.one()
        for v, m in zip(vs[:d], ms):
            p = p * MultiPoly.variable(v) ** m
        got = integrate(p, dom)
        tot = sum(ms)
        want = c ** (tot + d)
        for m in ms:
            fact = 1
            for i in range(2, m + 1):
                fact *= i
            want *= fact
        denom = 1
        for i in range(2, tot + d + 1):
            denom *= i
        assert got == want / denom


def test_two_block_cascade():
    x, y = fresh_var("ka"), fresh_var("kb")
    z = fresh_var("kc")
    dom = CascadePolytope(
        (Block((x, y), MultiPoly.const(Fraction(1))), Block((z,), MultiPoly.variable(x)))
    )
    # z is pinned to x, so integrals reduce to moments of x on (0,1)
    assert integrate(MultiPoly.variable(x) * MultiPoly.variable(z), dom) == Fraction(1, 3)
    assert integrate(MultiPoly.one(), dom) == 1


def test_two_block_cascade_with_free_child():
    a, b = fresh_var("fa"), fresh_var("fb")
    u, v = fresh_var("fu"), fresh_var("fv")
    dom = CascadePolytope(
        (Block((a, b), MultiPoly.const(Fraction(1))), Block((u, v), MultiPoly.variable(a)))
    )
    # measure: int_0^1 a da = 1/2; first child moment: int_0^1 a^2/2 da = 1/6
    assert integrate(MultiPoly.one(), dom) == Fraction(1, 2)
    assert integrate(MultiPoly.variable(u), dom) == Fraction(1, 6)


def test_atom_substitution():
    u = fresh_var("au")
    dom = CascadePolytope((Block((u,), MultiPoly.const(Fraction(1, 4))),))
    assert integrate(MultiPoly.variable(u), dom) == Fraction(1, 4)
    assert integrate(MultiPoly.one(), dom) == 1

    w = fresh_var("aw")
    empty = CascadePolytope((Block((w,), MultiPoly.const(Fraction(-1, 3))),))
    assert integrate(MultiPoly.one(), empty) == 0


def test_atom_gating_cascade():
    # first atom positive, dependent atom forced negative: whole domain empty
    x, y = fresh_var("gx"), fresh_var("gy")
    dom = CascadePolytope(
        (
            Block((x,), MultiPoly.const(Fraction(1, 2))),
            Block((y,), MultiPoly.variable(x) - Fraction(1)),
        )
    )
    assert integrate(MultiPoly.one(), dom) == 0


def test_integrate_rejects_foreign_variables():
    vs, dom = _simplex_dom(2, 1, "fv")
    stranger = fresh_var("stranger")
    with pytest.raises(ValueError):
        integrate(MultiPoly.variable(stranger), dom)


def test_vertex_enumeration_square():
    x, y = fresh_var("qx"), fresh_var("qy")
    free = (x, y)
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    exprs = [px, py, MultiPoly.one() - px, MultiPoly.one() - py]
    vrep = enumerate_vertices(exprs, free, 8)
    assert vrep.full_dim
    pts = {tuple(v) for v in vrep.vertices}
    z, o = Fraction(0), Fraction(1)
    assert pts == {(z, z), (z, o), (o, z), (o, o)}


def test_vertex_enumeration_dim_bound():
    vs = [fresh_var(f"db{i}") for i in range(4)]
    exprs = [MultiPoly.variable(v) for v in vs]
    exprs.append(MultiPoly.one() - sum(
        (MultiPoly.variable(v) for v in vs), MultiPoly.zero()))
    with pytest.raises(ValueError):
        enumerate_vertices(exprs, vs, 3)


def _region_integral(p, exprs, free, apex_rule="lex_min"):
    vrep = enumerate_vertices(exprs, free, 8)
    if not vrep.full_dim:
        return Fraction(0)
    total = Fraction(0)
    for simplex in triangulate(vrep, exprs, free, apex_rule=apex_rule):
        total += integrate_over_simplex(p, simplex, free)
    return total


def test_hyperplane_split_additivity():
    rng = random.Random(29)
    x, y = fresh_var("hx"), fresh_var("hy")
    free = (x, y)
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    simplex = [px, py, MultiPoly.one() - px - py]
    for trial in range(8):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        c = Fraction(rng.randint(-2, 2), rng.randint(2, 5))
        cut = px * a + py * b - c
        if cut.is_constant():
            continue
        p = px * px + py * Fraction(3, 2)
        whole = _region_integral(p, simplex, free)
        left = _region_integral(p, simplex + [cut], free)
        right = _region_integral(p, simplex + [MultiPoly.zero() - cut], free)
        assert left + right == whole, (a, b, c)


def test_triangulation_apex_independence():
    x, y = fresh_var("tx"), fresh_var("ty")
    free = (x, y)
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    # an irregular quadrilateral
    exprs = [px, py, MultiPoly.const(Fraction(3, 2)) - px - py,
             MultiPoly.one() - py + px * Fraction(1, 3)]
    p = px * py + px
    a = _region_integral(p, exprs, free, "lex_min")
    b = _region_integral(p, exprs, free, "lex_max")
    assert a == b


def test_integrate_apex_rule_agreement():
    w = tuple(fresh_var(f"ar{i}") for i in range(3))
    dom = CascadePolytope((Block(w, MultiPoly.const(Fraction(4, 3))),))
    p = MultiPoly.variable(w[0]) * MultiPoly.variable(w[1])
    assert integrate(p, dom, apex_rule="lex_min") == integrate(p, dom, apex_rule="lex_max")


def test_lattice_sum_converges():
    vs, dom = _simplex_dom(3, 1, "ls")
    exact = 0.5
    errs = []
    for k in (10, 20, 40):
        errs.append(abs(lattice_sum(MultiPoly.one(), dom, k) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05
