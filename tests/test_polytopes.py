"""Tests for cascade domains, vertex enumeration, and exact integration."""

import math
import random
from fractions import Fraction

import pytest

from flatvol import polytopes
from flatvol.exact import MultiPoly, common_denominator, fresh_var
from flatvol.polytopes import (
    DIM_BOUND,
    Block,
    CascadePolytope,
    enumerate_vertices,
    integrate,
    integrate_over_simplex,
    lattice_sum,
    parametrize,
    solve_square,
    triangulate,
)


def _simplex_dom(nvars, level, prefix="s"):
    vs = tuple(fresh_var(f"{prefix}{i}") for i in range(nvars))
    return vs, CascadePolytope((Block(vs, MultiPoly.const(Fraction(level))),))


def _row(const, *coeffs):
    """The row (b, a, s) of const + sum coeffs[j] * x_j, over its common denominator."""
    nums, s = common_denominator([Fraction(const), *map(Fraction, coeffs)])
    return nums[0], tuple(nums[1:]), s


def test_block_validation():
    v = fresh_var("bv")
    with pytest.raises(ValueError):
        Block((), MultiPoly.one())
    with pytest.raises(ValueError):
        Block((v, v), MultiPoly.one())
    with pytest.raises(ValueError):
        Block((v,), MultiPoly.variable(v) * MultiPoly.variable(v))  # not affine


@pytest.mark.parametrize(
    "vars_, level, message",
    [
        ((), MultiPoly.one(), "block needs at least one variable"),
        ((1, 1), MultiPoly.one(), "block variables must be distinct"),
        ((1,), MultiPoly.variable(1) * MultiPoly.variable(1), "block level must be affine"),
    ],
)
def test_block_refusals_name_their_reason(vars_, level, message):
    with pytest.raises(ValueError, match=message):
        Block(vars_, level)


def test_cascade_refuses_a_variable_reused_across_blocks():
    x, y = fresh_var("rx"), fresh_var("ry")
    with pytest.raises(ValueError, match="block variables reused across blocks"):
        CascadePolytope((Block((x, y), MultiPoly.one()), Block((y,), MultiPoly.variable(x))))


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
    # a level variable no block introduces would leave the cascade open,
    # so construction refuses it
    x, y, t = fresh_var("ex"), fresh_var("ey"), fresh_var("et")
    with pytest.raises(ValueError, match="before it is introduced"):
        CascadePolytope((Block((x, y), MultiPoly.variable(t)),))
    # a level in an earlier block's variable and a stranger's is refused too
    u = fresh_var("eu")
    with pytest.raises(ValueError, match="before it is introduced"):
        CascadePolytope(
            (Block((t,), MultiPoly.one()), Block((x, y), MultiPoly.affine(1, {t: 1, u: -1})))
        )


def test_simplex_measure_and_moment():
    vs, dom = _simplex_dom(3, 1, "m")
    assert integrate((MultiPoly.one(),), dom) == Fraction(1, 2)
    assert integrate((MultiPoly.variable(vs[0]),), dom) == Fraction(1, 6)

    # the triangle (0,0), (0,2/5), (1/3,0) listed with negative orientation
    x, y = fresh_var("mx"), fresh_var("my")
    z = Fraction(0)
    tri = [(1, {x: 0, y: 0}), (5, {x: 0, y: 2}), (3, {x: 1, y: 0})]
    assert integrate_over_simplex(MultiPoly.one(), tri, (x, y)) == Fraction(1, 15)
    assert integrate_over_simplex(MultiPoly.variable(x), tri, (x, y)) == Fraction(1, 135)

    # a 3-simplex whose edge columns have denominators 2, 3 and 5 * 7
    free = tuple(fresh_var(f"m3{i}") for i in range(3))
    v0 = (Fraction(1, 7), Fraction(-1), Fraction(2))
    cols = [(Fraction(1, 2), Fraction(1), z), (z, Fraction(-1, 3), Fraction(2)),
            (Fraction(1, 5), Fraction(3), Fraction(-3, 7))]
    pts = [v0] + [tuple(a + b for a, b in zip(v0, col)) for col in cols]
    simplex = [(den, dict(zip(free, nums))) for nums, den in map(common_denominator, pts)]
    (a, b, c), (d, e, f), (g, h, i) = cols
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert integrate_over_simplex(MultiPoly.one(), simplex, free) == abs(det) / 6


def test_scaled_level_closed_forms():
    c = Fraction(5, 7)
    vs, dom = _simplex_dom(3, c, "c")
    # measure c^2/2 and first moment c^3/6
    assert integrate((MultiPoly.one(),), dom) == c ** 2 / 2
    assert integrate((MultiPoly.variable(vs[0]),), dom) == c ** 3 / 6


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
        got = integrate((p,), dom)
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


def _substitution_parametrize(dom):
    """Reference: each level through MultiPoly.substitute, tails by subtraction."""
    free, subst, exprs = [], {}, []
    for blk in dom.blocks:
        tail = blk.level.substitute({v: subst[v] for v in blk.level.vars})
        for v in blk.vars[:-1]:
            free.append(v)
            subst[v] = MultiPoly.variable(v)
            tail = tail - MultiPoly.variable(v)
        subst[blk.vars[-1]] = tail
        exprs.extend(subst[v] for v in blk.vars)
    return tuple(free), subst, tuple(exprs)


def _assert_same_system(dom):
    ps = parametrize(dom)
    free, subst, exprs = _substitution_parametrize(dom)
    assert ps.free == free
    assert len(ps.rows) == len(exprs)
    for v, (b, a, s) in zip(dom.variables, ps.rows):
        assert s > 0 and math.gcd(b, *a, s) == 1
        got = MultiPoly.affine(Fraction(b, s), {f: Fraction(c, s) for f, c in zip(free, a)})
        assert got == subst[v]
    return ps


def test_parametrize_matches_substitution():
    a, b, c, d, e, f, h = (fresh_var(f"pz{i}") for i in range(7))
    pa, pb, pd, pe = (MultiPoly.variable(v) for v in (a, b, d, e))
    third = MultiPoly.const(2) - pe * Fraction(3, 7) + pb * Fraction(2, 7) - pd * Fraction(1, 5)
    dom = CascadePolytope((
        Block((a, b), MultiPoly.const(Fraction(5, 2))),
        # heads out of id order, level written variable first
        Block((d, c, e), pa * Fraction(-2, 3) + Fraction(3, 4)),
        # uses blocks 1 and 2; the coefficient of a cancels to zero
        Block((f, h), third),
    ))
    ps = _assert_same_system(dom)
    assert ps.free == (a, d, c, f)
    # h = 67/28 + 8/35 d + 3/7 c - f
    assert ps.rows[dom.variables.index(h)] == (335, (0, 32, 60, -140), 140)

    # every block a singleton: no free coordinates, constant expressions,
    # one of them zero
    p, q, r = fresh_var("pzp"), fresh_var("pzq"), fresh_var("pzr")
    pp, pq = MultiPoly.variable(p), MultiPoly.variable(q)
    dom = CascadePolytope((
        Block((p,), MultiPoly.const(Fraction(3, 2))),
        Block((q,), MultiPoly.one() - pp * Fraction(1, 3)),
        Block((r,), pp - pq * 3),
    ))
    ps = _assert_same_system(dom)
    assert ps.free == ()
    assert ps.rows == ((3, (), 2), (1, (), 2), (0, (), 1))


def test_two_block_cascade():
    x, y = fresh_var("ka"), fresh_var("kb")
    z = fresh_var("kc")
    dom = CascadePolytope(
        (Block((x, y), MultiPoly.const(Fraction(1))), Block((z,), MultiPoly.variable(x)))
    )
    # z is pinned to x, so integrals reduce to moments of x on (0,1)
    assert integrate((MultiPoly.variable(x) * MultiPoly.variable(z),), dom) == Fraction(1, 3)
    assert integrate((MultiPoly.one(),), dom) == 1


def test_two_block_cascade_with_free_child():
    a, b = fresh_var("fa"), fresh_var("fb")
    u, v = fresh_var("fu"), fresh_var("fv")
    dom = CascadePolytope(
        (Block((a, b), MultiPoly.const(Fraction(1))), Block((u, v), MultiPoly.variable(a)))
    )
    # measure: int_0^1 a da = 1/2; first child moment: int_0^1 a^2/2 da = 1/6
    assert integrate((MultiPoly.one(),), dom) == Fraction(1, 2)
    assert integrate((MultiPoly.variable(u),), dom) == Fraction(1, 6)


def test_atom_substitution():
    u = fresh_var("au")
    dom = CascadePolytope((Block((u,), MultiPoly.const(Fraction(1, 4))),))
    assert integrate((MultiPoly.variable(u),), dom) == Fraction(1, 4)
    assert integrate((MultiPoly.one(),), dom) == 1

    w = fresh_var("aw")
    empty = CascadePolytope((Block((w,), MultiPoly.const(Fraction(-1, 3))),))
    assert integrate((MultiPoly.one(),), empty) == 0


def test_atom_gating_cascade():
    # first atom positive, dependent atom forced negative: whole domain empty
    x, y = fresh_var("gx"), fresh_var("gy")
    dom = CascadePolytope(
        (
            Block((x,), MultiPoly.const(Fraction(1, 2))),
            Block((y,), MultiPoly.variable(x) - Fraction(1)),
        )
    )
    assert integrate((MultiPoly.one(),), dom) == 0


def test_constant_nonpositive_expression_skips_vertices(monkeypatch):
    # z's level u - 1 is the constant -1/2 once the atom u is substituted, so
    # the one-dimensional cascade is empty before any vertex is enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("vertex enumeration on an empty cascade")

    def refuse_mul(*args):
        raise AssertionError("factors multiplied on an empty domain")

    u, x, y, z = (fresh_var(f"cz{i}") for i in range(4))
    dom = CascadePolytope(
        (
            Block((u,), MultiPoly.const(Fraction(1, 2))),
            Block((x, y), MultiPoly.one()),
            Block((z,), MultiPoly.variable(u) - 1),
        )
    )
    assert dom.dimension() == 1
    factors = (MultiPoly.variable(x), MultiPoly.variable(y))
    monkeypatch.setattr(MultiPoly, "__mul__", refuse_mul)
    monkeypatch.setattr(polytopes, "enumerate_vertices", refuse)
    assert integrate(factors, dom) == 0
    monkeypatch.undo()

    # x <= 1/2 <= x leaves the single vertex x = 1/2, a polytope that is
    # not full-dimensional: its vertices are enumerated, nothing multiplied
    w = fresh_var("cz4")
    dom = CascadePolytope(
        (
            Block((x, y), MultiPoly.one()),
            Block((z,), MultiPoly.variable(x) - Fraction(1, 2)),
            Block((w,), Fraction(1, 2) - MultiPoly.variable(x)),
        )
    )
    ps = parametrize(dom)
    assert not enumerate_vertices(ps.rows, ps.free).full_dim
    monkeypatch.setattr(MultiPoly, "__mul__", refuse_mul)
    assert integrate(factors, dom) == 0
    monkeypatch.undo()

    # only the leaf block (x, y) at level u - 1 empties the domain: folded
    # to its cut, it is the constant row -1/2 beside the free coordinate
    # a, or a forced point when nothing else is free
    a, b, c = (fresh_var(f"cz{i}") for i in range(5, 8))
    parent = (Block((u,), MultiPoly.const(Fraction(1, 2))),)
    free_parent = parent + (Block((a, b), MultiPoly.one()), Block((c,), MultiPoly.variable(a)))
    monkeypatch.setattr(MultiPoly, "__mul__", refuse_mul)
    monkeypatch.setattr(polytopes, "enumerate_vertices", refuse)
    for blocks in (free_parent, parent):
        dom = CascadePolytope(blocks + (Block((x, y), MultiPoly.variable(u) - 1),))
        # unfolded, no row is a constant <= 0
        assert all(any(a) or b > 0 for b, a, _ in parametrize(dom).rows)
        assert integrate(factors, dom) == 0


def _refuse_geometry(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("geometry or a product on a zero-dimensional cascade")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(polytopes, "parametrize", refuse)
    monkeypatch.setattr(polytopes, "enumerate_vertices", refuse)


def _point_cascade(third_level):
    """Singletons u = 1/2, v = u + 1/3 and w = third_level(v), with two factors."""
    u, v, w = (fresh_var(f"pt{i}") for i in range(3))
    pu, pv, pw = map(MultiPoly.variable, (u, v, w))
    dom = CascadePolytope(
        (
            Block((u,), MultiPoly.const(Fraction(1, 2))),
            Block((v,), pu + Fraction(1, 3)),
            Block((w,), third_level(pv)),
        )
    )
    return (pu * pv + pw, pv - pw), dom


def test_point_cascade_is_the_product_of_its_factor_values(monkeypatch):
    # at u = 1/2, v = 5/6, w = 1/6 the factors are 7/12 and 2/3
    factors, dom = _point_cascade(lambda pv: 1 - pv)
    assert dom.dimension() == 0
    _refuse_geometry(monkeypatch)
    assert integrate(factors, dom) == Fraction(7, 12) * Fraction(2, 3)


@pytest.mark.parametrize("gap", [0, Fraction(-1, 3)])
def test_point_cascade_with_a_level_at_most_zero_is_empty(monkeypatch, gap):
    # w = 5/6 + gap - v is the third level, gap at v = 5/6
    factors, dom = _point_cascade(lambda pv: Fraction(5, 6) + gap - pv)
    _refuse_geometry(monkeypatch)
    assert integrate(factors, dom) == 0


def test_lattice_sum_of_a_point_cascade_is_its_integral(monkeypatch):
    for third_level in (lambda pv: 1 - pv, lambda pv: Fraction(1, 2) - pv):
        (p, _), dom = _point_cascade(third_level)
        _refuse_geometry(monkeypatch)
        assert lattice_sum(p, dom, 5) == float(integrate((p,), dom))
        monkeypatch.undo()


def test_integrate_rejects_foreign_variables():
    vs, dom = _simplex_dom(2, 1, "fv")
    stranger = fresh_var("stranger")
    with pytest.raises(ValueError):
        integrate((MultiPoly.variable(stranger),), dom)


_SQUARE = [(0, (1, 0), 1), (0, (0, 1), 1), (1, (-1, 0), 1), (1, (0, -1), 1)]
# the irregular quadrilateral x, y, 3/2 - x - y, 1 - y + x/3 >= 0
_QUAD = [(0, (1, 0), 1), (0, (0, 1), 1), (3, (-2, -2), 2), (3, (1, -3), 3)]


def _assert_vertex_table(rows, vrep):
    """Each vertex is primitive with den > 0, in point order, and row i at
    vertex k equals values[k][i] / (den_k * s_i)."""
    points = []
    for (den, *num), vals in zip(vrep.vertices, vrep.values):
        assert den > 0 and math.gcd(den, *num) == 1
        x = [Fraction(n, den) for n in num]
        points.append(tuple(x))
        assert len(vals) == len(rows)
        for (b, a, s), v in zip(rows, vals):
            assert Fraction(v, den * s) == (b + sum(c * xi for c, xi in zip(a, x))) / s
    assert points == sorted(set(points))


def test_vertex_enumeration_square():
    x, y = fresh_var("qx"), fresh_var("qy")
    free = (x, y)
    vrep = enumerate_vertices(_SQUARE, free)
    assert vrep.full_dim
    assert set(vrep.vertices) == {(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    _assert_vertex_table(_SQUARE, vrep)

    # the quadrilateral of test_triangulation_apex_independence: rows of
    # scale 2 and 3, and a vertex cut out by two slanted facets
    tight = {(1, 0, 0): {0, 1}, (2, 3, 0): {1, 2}, (1, 0, 1): {0, 3}, (8, 3, 9): {2, 3}}
    # the second order makes the first basis (y, x), whose determinant is -1
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        rows = [_QUAD[i] for i in order]
        vrep = enumerate_vertices(rows, free)
        assert vrep.full_dim
        got = {
            v: {order[i] for i, x in enumerate(vals) if not x}
            for v, vals in zip(vrep.vertices, vrep.values)
        }
        assert got == tight
        _assert_vertex_table(rows, vrep)

    # the segment x = 0, 0 <= y <= 1: feasible but not full-dimensional
    seg = [(0, (1, 0), 1), (0, (-1, 0), 1), (0, (0, 1), 1), (1, (0, -1), 1)]
    vrep = enumerate_vertices(seg, free)
    assert vrep.full_dim is False
    assert set(vrep.vertices) == {(1, 0, 0), (1, 0, 1)}
    assert triangulate(vrep) == []


def test_vertex_enumeration_skips_parallel_bases(monkeypatch):
    # the unit square has C(4, 2) = 6 bases; (x, 1 - x) and (y, 1 - y) are
    # parallel pairs, so only the other 4 reach the elimination
    solved = []

    def counting(rows, rhs):
        solved.append(tuple(map(tuple, rows)))
        return solve_square(rows, rhs)

    monkeypatch.setattr(polytopes, "solve_square", counting)
    x, y = fresh_var("px"), fresh_var("py")
    vrep = enumerate_vertices(_SQUARE, (x, y))
    assert len(solved) == 4
    assert all(solve_square(rows, (0, 0)) is not None for rows in solved)
    assert set(vrep.vertices) == {(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    zeros = [{i for i, x in enumerate(vals) if not x} for vals in vrep.values]
    assert zeros == [{0, 1}, {0, 3}, {1, 2}, {2, 3}]


def test_vertex_enumeration_dim_bound(monkeypatch):
    # the standard simplex one dimension above the bound is refused before
    # any basis is solved
    def refuse(*args):
        raise AssertionError("basis solved above the dimension bound")

    monkeypatch.setattr(polytopes, "solve_square", refuse)
    d = DIM_BOUND + 1
    vs = [fresh_var(f"db{i}") for i in range(d)]
    rows = [(0, tuple(int(i == j) for j in range(d)), 1) for i in range(d)]
    rows.append((1, (-1,) * d, 1))
    with pytest.raises(ValueError, match="exceeds bound"):
        enumerate_vertices(rows, vs)


def test_leaf_block_above_the_dimension_bound():
    # a lone block is a leaf, integrated in closed form, so the bound on
    # vertex enumeration does not reach it: the 9-simplex has measure 1/9!
    vs, dom = _simplex_dom(10, 1, "lb")
    assert dom.dimension() > DIM_BOUND
    assert integrate((MultiPoly.one(),), dom) == Fraction(1, math.factorial(9))


def _region_integral(p, rows, free, apex_rule="lex_min"):
    vrep = enumerate_vertices(rows, free)
    if not vrep.full_dim:
        return Fraction(0)
    verts = [(den, dict(zip(free, num))) for den, *num in vrep.vertices]
    total = Fraction(0)
    for simplex in triangulate(vrep, apex_rule):
        total += integrate_over_simplex(p, [verts[k] for k in simplex], free)
    return total


def _random_cascade(rng, tag):
    """2-3 blocks of dimension 1-4 in all; child levels affine in earlier blocks."""
    while True:
        sizes = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        if 1 <= sum(sizes) - len(sizes) <= 4:
            break
    blocks, earlier = [], []
    for j, size in enumerate(sizes):
        vs = tuple(fresh_var(f"{tag}{j}{i}") for i in range(size))
        level = MultiPoly.const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        for v in rng.sample(earlier, min(len(earlier), rng.randint(1, 3))):
            coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            level = level + MultiPoly.variable(v) * coef
        blocks.append(Block(vs, level))
        earlier.extend(vs)
    return CascadePolytope(tuple(blocks))


def test_integrate_matches_free_chart_pullback():
    # reference: expand p into the free chart, then pull the expansion back
    # onto each simplex from the free coordinates of its vertices
    rng = random.Random(43)
    nonzero = 0
    for trial in range(40):
        dom = _random_cascade(rng, f"fc{trial}_")
        heads = [blk.vars[-1] for blk in dom.blocks]
        p = MultiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            term = MultiPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * MultiPoly.variable(rng.choice(heads + list(dom.variables)))
            p = p + term
        ps = parametrize(dom)
        _, subst, _ = _substitution_parametrize(dom)
        q = p.substitute({v: subst[v] for v in p.vars})
        want = _region_integral(q, ps.rows, ps.free)
        assert integrate((p,), dom) == want, trial
        nonzero += want != 0
    assert nonzero >= 30


def _leafy_cascade(rng, tag, kind):
    """A parent cascade with one or two leaf blocks of 2-3 variables below it.

    kind sets the leaf levels: "constant"; "cut", affine and crossing the
    parent; "empty", negative on all of the parent; "point", over a parent
    of singletons, so nothing is left free once the leaves are folded.
    """
    point = kind == "point"

    def block(j, sizes, level):
        vs = tuple(fresh_var(f"{tag}{j}{i}") for i in range(rng.randint(*sizes)))
        return Block(vs, level)

    top = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    first = block(0, (1, 1) if point else (2, 3), MultiPoly.const(top))
    head = MultiPoly.variable(first.vars[-1])
    second = block(1, (1, 1) if point else (1, 2), head * Fraction(rng.randint(1, 3), 2))
    blocks = [first, second]
    for j in range(2, rng.randint(3, 4)):
        x = MultiPoly.variable(rng.choice(first.vars))
        if kind == "constant":
            level = MultiPoly.const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        elif kind == "cut":
            level = x - top * Fraction(rng.randint(1, 3), 4)
        elif kind == "empty":
            level = x - top * Fraction(rng.randint(4, 7), 4)
        else:
            level = x * Fraction(rng.randint(-1, 1), 2) + Fraction(rng.randint(-1, 9), 2)
            level = level + MultiPoly.variable(second.vars[0]) * Fraction(rng.randint(-2, 2), 5)
        blocks.append(block(j, (2, 3), level))
    return CascadePolytope(tuple(blocks))


def test_leaf_folding_matches_the_uneliminated_fan():
    # reference: the integrand expanded over the full parametrize rows of
    # the cascade, leaf coordinates included, and integrated on their fan
    rng = random.Random(71)
    seen = dict.fromkeys(("constant", "cut", "empty", "point"), 0)
    for trial in range(32):
        kind = list(seen)[trial % 4]
        dom = _leafy_cascade(rng, f"lf{trial}_", kind)
        if dom.dimension() > 6:
            continue
        p = MultiPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = MultiPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * MultiPoly.variable(rng.choice(dom.variables))
            p = p + term
        ps = parametrize(dom)
        _, subst, _ = _substitution_parametrize(dom)
        want = _region_integral(p.substitute({v: subst[v] for v in p.vars}), ps.rows, ps.free)
        assert integrate((p,), dom) == want, (trial, kind)
        assert want == 0 or kind != "empty", trial
        seen[kind] += want != 0 or kind == "empty"
    assert min(seen.values()) >= 5, seen

    # one block: c^(|m|+e-1) * prod m_i! / (|m|+e-1)!, the last variable too
    for ms, c in (((0, 3), Fraction(5, 3)), ((1, 0, 2), Fraction(2, 7)), ((2, 1, 1, 3), Fraction(3))):
        e = len(ms)
        vs, dom = _simplex_dom(e, c, "ob")
        mono = MultiPoly(vs, {ms: 1})
        k = sum(ms) + e - 1
        want = c**k * math.prod(map(math.factorial, ms)) / math.factorial(k)
        assert integrate((mono,), dom) == want


def test_vertex_table_on_random_cascades():
    rng = random.Random(59)
    for trial in range(20):
        ps = parametrize(_random_cascade(rng, f"vt{trial}_"))
        _assert_vertex_table(ps.rows, enumerate_vertices(ps.rows, ps.free))


def test_hyperplane_split_additivity():
    rng = random.Random(29)
    x, y = fresh_var("hx"), fresh_var("hy")
    free = (x, y)
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    simplex = [(0, (1, 0), 1), (0, (0, 1), 1), (1, (-1, -1), 1)]
    for trial in range(8):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        c = Fraction(rng.randint(-2, 2), rng.randint(2, 5))
        if not a and not b:
            continue
        p = px * px + py * Fraction(3, 2)
        whole = _region_integral(p, simplex, free)
        left = _region_integral(p, simplex + [_row(-c, a, b)], free)
        right = _region_integral(p, simplex + [_row(c, -a, -b)], free)
        assert left + right == whole, (a, b, c)


def test_triangulation_apex_independence():
    x, y = fresh_var("tx"), fresh_var("ty")
    free = (x, y)
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    p = px * py + px
    a = _region_integral(p, _QUAD, free, "lex_min")
    b = _region_integral(p, _QUAD, free, "lex_max")
    assert a == b


def test_lattice_sum_converges():
    vs, dom = _simplex_dom(3, 1, "ls")
    exact = 0.5
    errs = []
    for k in (10, 20, 40):
        errs.append(abs(lattice_sum(MultiPoly.one(), dom, k) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05
