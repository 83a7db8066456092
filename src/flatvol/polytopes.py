"""Exact integration of polynomials over cascades of twist simplices.

A domain is a sequence of blocks; block j carries fresh positive variables
b_1..b_e and the constraint b_1 + .. + b_e = level_j, where level_j is an
affine expression in variables of earlier blocks (a constant for the
first block), so every cascade is closed.  The measure is the projection
measure: eliminate the last variable of every block and integrate
d(remaining coordinates).

A leaf block, one of e >= 2 variables that no level uses, is integrated
in closed form before any geometry runs: over b_1 + .. + b_e = c,

    int prod b_i^{m_i} = prod m_i! / (|m| + e - 1)! * c^(|m| + e - 1),

so the block becomes the singleton y = c on its last variable y, whose
row y >= 0 is the cut c >= 0, and each leaf monomial becomes that power
of y.  A zero-dimensional cascade (all blocks singletons) is a single
forced point, valued by point_value in one forward pass over its blocks.
Any other cascade is parametrized to one integer row per cascade variable
over the free coordinates, and the rows double as its inequality system.
Everything from there on is integer: vertex enumeration gives each vertex
as a primitive homogeneous tuple (den, numerators) with every row's
value there, the triangulation fans vertex indices from the
lexicographically smallest vertex, and each simplex pulls the integrand,
a product of factors multiplied only once the polytope is known to be
full-dimensional, back to the standard simplex straight from the cascade
variables: on a simplex chart every cascade variable is affine in t,
with integer coefficients over the lcm of the vertex denominators.  On
the standard simplex monomials integrate in closed form:

    int_{t_i >= 0, sum t <= 1} prod t_i^{m_i} dt = prod m_i! / (sum m_i + d)!
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

from .exact import MultiPoly, compose_affine, var_name

# largest dimension enumerate_vertices accepts; integrate applies it after folding leaf blocks
DIM_BOUND = 8


class _BlockFields(NamedTuple):
    vars: tuple[int, ...]
    level: MultiPoly


class Block(_BlockFields):
    """Positive variables summing to an affine level."""

    __slots__ = ()

    def __new__(cls, vars: tuple[int, ...], level: MultiPoly) -> Block:
        if not vars:
            raise ValueError("block needs at least one variable")
        if len(set(vars)) != len(vars):
            raise ValueError("block variables must be distinct")
        if not level.is_affine():
            raise ValueError("block level must be affine")
        return super().__new__(cls, vars, level)


class _CascadeFields(NamedTuple):
    blocks: tuple[Block, ...]


class CascadePolytope(_CascadeFields):
    """Blocks in dependency order; levels only use earlier blocks' variables.

    A level variable that no earlier block introduces is refused, so every
    cascade is closed: its domain does not depend on outside parameters.
    """

    __slots__ = ()

    def __new__(cls, blocks: tuple[Block, ...]) -> CascadePolytope:
        seen: set[int] = set()
        for blk in blocks:
            if set(blk.vars) & seen:
                raise ValueError("block variables reused across blocks")
            for vid in blk.level.vars:
                if vid not in seen:
                    raise ValueError(
                        f"level of a block uses {var_name(vid)} before it is introduced"
                    )
            seen.update(blk.vars)
        return super().__new__(cls, blocks)

    @property
    def variables(self) -> tuple[int, ...]:
        out: list[int] = []
        for blk in self.blocks:
            out.extend(blk.vars)
        return tuple(out)

    def dimension(self) -> int:
        return sum(len(b.vars) - 1 for b in self.blocks)


# A row (b, a, s) is the affine form (b + a.x) / s in the free coordinates
# x, with integers b and a_j and s > 0; gcd(b, a, s) = 1 in parametrize.
Row = tuple[int, tuple[int, ...], int]


class ParamSystem(NamedTuple):
    """Cascade rewritten over free coordinates.

    rows[i] gives cascade variable i, in dom.variables order, as a row in
    the free coordinates.  Every variable must be positive on the domain,
    so the rows double as the inequality system b + a.x >= 0 of its closure.
    """

    free: tuple[int, ...]
    rows: tuple[Row, ...]


def parametrize(dom: CascadePolytope) -> ParamSystem:
    """Eliminate the last variable of every block.

    Each level is composed with the earlier blocks' rows over one integer
    denominator, and the eliminated variable's row is reduced by the gcd
    of its entries.
    """
    free: list[int] = []
    # each variable's row, its a as a map over the free coordinates so far
    maps: dict[int, tuple[int, dict[int, int], int]] = {}
    for blk in dom.blocks:
        level = blk.level
        parts = [
            (c, maps[level.vars[exps.index(1)]] if 1 in exps else (1, {}, 1))
            for exps, c in level.terms.items()
        ]
        s = level.den * math.lcm(*(t for _, (_, _, t) in parts))
        b = 0
        a: dict[int, int] = {}
        for c, (rb, ra, t) in parts:
            f = c * (s // (level.den * t))
            b += f * rb
            for v, x in ra.items():
                a[v] = a.get(v, 0) + f * x
        for v in blk.vars[:-1]:
            free.append(v)
            maps[v] = (0, {v: 1}, 1)
            a[v] = -s
        g = math.gcd(s, b, *a.values())
        maps[blk.vars[-1]] = (b // g, {v: x // g for v, x in a.items() if x}, s // g)
    pos = {v: j for j, v in enumerate(free)}
    rows = []
    for v in dom.variables:
        b, a, s = maps[v]
        vec = [0] * len(free)
        for u, x in a.items():
            vec[pos[u]] = x
        rows.append((b, tuple(vec), s))
    return ParamSystem(tuple(free), tuple(rows))


# -- exact linear algebra -------------------------------------------------


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken in the first ncols columns, skipping columns with no
    nonzero entry left; later columns (a right-hand side) are carried
    along.  Returns (rank, last pivot).  Every division is exact, since
    each entry stays, up to sign, a minor of the input; for a square
    matrix of full rank the last pivot is +-det.
    """
    rank, prev = 0, 1
    for col in range(ncols):
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for r in range(len(rows)):
            if r != rank:
                f = rows[r][col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(rows[r], pivot_row)]
        prev = p
        rank += 1
    return rank, prev


def solve_square(rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Solve a square integer system by fraction-free elimination.

    Returns (numerators, denominator) with x_i = numerators[i] / denominator
    and denominator > 0, or None when the system is singular.
    """
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    rank, det = _bareiss(a, n)
    if rank < n:
        return None
    if det < 0:
        return [-r[n] for r in a], -det
    return [r[n] for r in a], det


# -- vertex enumeration ----------------------------------------------------


class VRepPolytope(NamedTuple):
    """Vertices of a closed feasible set with every row's value at each.

    vertices[k] is the point (num_1 / den, .., num_d / den) as the
    primitive integer tuple (den, num_1, .., num_d) with den > 0, the
    vertices in point order.  Row i = (b, a, s) takes the value
    values[k][i] / (den * s) there, so the rows active at vertex k are
    the zeros of values[k].  full_dim says whether the affine hull of the
    vertices has the ambient dimension (if not, the open feasible set is
    empty and integrals vanish).
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]
    full_dim: bool


def _rank(vertices: Sequence[tuple[int, ...]], ncols: int) -> int:
    """Rank of homogeneous vertex tuples, one more than their affine hull's dimension."""
    return _bareiss([list(v) for v in vertices], ncols)[0]


def enumerate_vertices(rows: Sequence[Row], free: Sequence[int]) -> VRepPolytope:
    """Vertices of {x : b + a.x >= 0 for every row} by exact basis enumeration.

    Intended for small bounded systems (the cascade domains); dimensions
    above DIM_BOUND, counted after integrate folds the leaf blocks, are
    refused, split the domain instead.
    """
    d = len(free)
    if d == 0:
        raise ValueError("vertex enumeration needs at least one free coordinate")
    if d > DIM_BOUND:
        raise ValueError(
            f"dimension {d} exceeds bound {DIM_BOUND}; decompose the domain first"
        )
    # a basis holding two parallel rows (such as x >= 0 and c - x >= 0) or a
    # zero row is singular, so a basis takes one row from each of d distinct
    # classes of parallel rows
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, (_, a, _) in enumerate(rows):
        g = math.gcd(*a)
        if g:
            g = g if next(x for x in a if x) > 0 else -g
            classes.setdefault(tuple(x // g for x in a), []).append(i)
    # keyed by the primitive solution (den, num), which is unique per point;
    # the first basis at a point keeps its row values, reduced to that den
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    bases = itertools.chain.from_iterable(
        itertools.product(*group) for group in itertools.combinations(classes.values(), d)
    )
    for combo in bases:
        sol = solve_square([rows[i][1] for i in combo], [-rows[i][0] for i in combo])
        if sol is None:
            continue
        num, den = sol
        vals = [b * den + sum(c * x for c, x in zip(a, num)) for b, a, _ in rows]
        if any(v < 0 for v in vals):
            continue
        g = math.gcd(den, *num)
        key = (den // g, *(x // g for x in num))
        if key not in found:
            # from a list: tuple() of a generator resizes as it grows, and
            # that raised the benchmark's peak RSS
            found[key] = tuple([v // g for v in vals])
    verts = sorted(found, key=lambda v: [Fraction(x, v[0]) for x in v[1:]])
    return VRepPolytope(
        d,
        tuple(verts),
        tuple(found[v] for v in verts),
        len(verts) > 0 and _rank(verts, d + 1) == d + 1,
    )


# -- triangulation ---------------------------------------------------------


def triangulate(vrep: VRepPolytope, apex_rule: str = "lex_min") -> list[tuple[int, ...]]:
    """Fan triangulation from the lexicographically extreme vertex.

    Recursively cones the chosen apex over triangulations of the facets
    that do not contain it.  Each simplex is a tuple of indices into
    vrep.vertices.  Deterministic for a fixed apex_rule.
    """
    if apex_rule not in ("lex_min", "lex_max"):
        raise ValueError("apex_rule must be lex_min or lex_max")
    if not vrep.full_dim:
        return []
    return _fan(vrep, tuple(range(len(vrep.vertices))), vrep.dim, apex_rule == "lex_min")


def _fan(vrep: VRepPolytope, idxs: tuple[int, ...], k: int, lex_min: bool) -> list[tuple[int, ...]]:
    """Fan triangulation of the k-dimensional face spanned by the vertices idxs."""
    if len(idxs) == k + 1:
        return [idxs]
    apex = idxs[0] if lex_min else idxs[-1]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for row in range(len(vrep.values[0])):
        sub = tuple(i for i in idxs if not vrep.values[i][row])
        if not sub or apex in sub or len(sub) == len(idxs) or sub in seen:
            continue
        seen.add(sub)
        if _rank([vrep.vertices[i] for i in sub], vrep.dim + 1) != k:
            continue
        for s in _fan(vrep, sub, k - 1, lex_min):
            out.append(s + (apex,))
    return out


def integrate_over_simplex(
    p: MultiPoly, simplex: Sequence[tuple[int, Mapping[int, int]]], free: Sequence[int]
) -> Fraction:
    """Exact integral of p over a d-simplex in the free coordinates.

    Vertex j is (den_j, num_j): num_j maps every free variable and every
    variable of p to its numerator over den_j there.  The chart
    x = x_0 + M t has |det M| equal to the Bareiss pivot of the rows
    (den_j, free numerators) over prod den_j.  On the chart each variable
    v of p is affine, v = v_0 + sum_j t_j (v_j - v_0), with integer
    coefficients over the lcm of the den_j, so p is pulled back by one
    affine substitution and integrated with the Dirichlet monomial formula
    on the standard simplex.  The free variables serve as the chart
    coordinates t.
    """
    d = len(free)
    if len(simplex) != d + 1:
        raise ValueError("simplex needs d+1 vertices")
    rank, pivot = _bareiss([[den] + [num[f] for f in free] for den, num in simplex], d + 1)
    if rank <= d:
        return Fraction(0)
    dens = [den for den, _ in simplex]
    lcm = math.lcm(*dens)
    (k0, n0), *rest = [(lcm // den, num) for den, num in simplex]
    images = {}
    for vid in p.vars:
        base = k0 * n0[vid]
        lin = {t: k * num[vid] - base for t, (k, num) in zip(free, rest)}
        lin[None] = base
        images[vid] = {t: c for t, c in lin.items() if c}
    q = compose_affine(p, images, lcm)
    # sum c * prod m_i! / (|m| + d)! over the common denominator q.den * (D + d)!
    top = math.factorial(q.total_degree() + d)
    acc = 0
    for exps, c in q.terms.items():
        w = c * (top // math.factorial(sum(exps) + d))
        for m in exps:
            w *= math.factorial(m)
        acc += w
    return Fraction(abs(pivot) * acc, math.prod(dens) * q.den * top)


def point_value(
    factors: Sequence[MultiPoly],
    dom: CascadePolytope,
    at: dict[int, Fraction],
    factor_at: dict[int, Fraction],
) -> Fraction:
    """Product of the factors at the forced point of a zero-dimensional cascade.

    One forward pass over the singleton blocks evaluates each level at the
    earlier blocks' values and returns 0 at the first level <= 0.  Every
    factor variable must be one of the cascade's own.

    at (variable id -> forced value) and factor_at (id of a factor ->
    its value there) are memos that this call fills.  Cascades may share
    them only while each shared variable has the same forced value in
    all of them and the factor objects stay alive, as among the trees of
    one flatten call, where every variable belongs to exactly one block;
    a flatten state shared across root graphs renames each reuse anew.
    """
    for blk in dom.blocks:
        (vid,) = blk.vars
        x = at.get(vid)
        if x is None:
            x = at[vid] = blk.level.evaluate(at)
        if x <= 0:
            return Fraction(0)
    out = Fraction(1)
    for f in factors:
        y = factor_at.get(id(f))
        if y is None:
            y = factor_at[id(f)] = f.evaluate(at)
        out *= y
    return out


def _leaf_moments(p: MultiPoly, leaves: Mapping[int, tuple[int, ...]]) -> MultiPoly:
    """p with its monomials integrated over the leaf blocks (see the module docstring).

    leaves maps the variable y kept for each leaf block to its variables.
    """
    owner = {v: y for y, blk in leaves.items() for v in blk}
    vs = [v for v in p.vars if v not in owner] + list(leaves)
    slot = {v: j for j, v in enumerate(vs)}
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        e = [0] * len(vs)
        w = Fraction(c, p.den)
        for v, m in zip(p.vars, exps):
            e[slot[owner.get(v, v)]] += m
            if v in owner:
                w *= math.factorial(m)
        for y, blk in leaves.items():
            e[slot[y]] += len(blk) - 1
            w /= math.factorial(e[slot[y]])
        key = tuple(e)
        out[key] = out.get(key, 0) + w
    return MultiPoly(vs, out)


def integrate(factors: Sequence[MultiPoly], dom: CascadePolytope) -> Fraction:
    """Exact integral of the product of the factors over the cascade.

    A zero-dimensional domain (all blocks singletons) is valued by
    point_value.  Otherwise the leaf blocks are folded (see the module
    docstring), and the folded cascade is found empty, before the factors
    are multiplied, by a level <= 0 at its forced point, a constant row
    <= 0 of parametrize or a polytope that is not full-dimensional.  The
    product, with its leaf monomials folded, is evaluated at the forced
    point or pulled back onto each simplex of the triangulation from the
    values of the cascade variables at its vertices, with no free-chart
    expansion.
    """
    known = set(dom.variables)
    for vid in {v for f in factors for v in f.vars}:
        if vid not in known:
            raise ValueError(f"integrand uses foreign variable {var_name(vid)}")
    if not dom.dimension():
        return point_value(factors, dom, {}, {})
    in_levels = {v for b in dom.blocks for v in b.level.vars}
    leaves = {
        b.vars[-1]: b.vars for b in dom.blocks if len(b.vars) > 1 and in_levels.isdisjoint(b.vars)
    }
    if leaves:
        dom = CascadePolytope(
            tuple(Block((b.vars[-1],), b.level) if b.vars[-1] in leaves else b for b in dom.blocks)
        )
    at: dict[int, Fraction] = {}
    if dom.dimension():
        ps = parametrize(dom)
        if any(b <= 0 and not any(a) for b, a, _ in ps.rows):
            return Fraction(0)
        vrep = enumerate_vertices(ps.rows, ps.free)
        if not vrep.full_dim:
            return Fraction(0)
    elif not point_value((), dom, at, {}):
        return Fraction(0)
    p = reduce(operator.mul, factors)
    if leaves:
        p = _leaf_moments(p, leaves)
    if not dom.dimension():
        return p.evaluate(at)
    # every vertex over den * scale, scale the lcm of the row scales of p's
    # variables (a free variable's row has scale 1)
    pos = {v: i for i, v in enumerate(dom.variables)}
    used = [(v, pos[v]) for v in dict.fromkeys(ps.free + p.vars)]
    scale = math.lcm(*(ps.rows[i][2] for _, i in used))
    lift = [(v, i, scale // ps.rows[i][2]) for v, i in used]
    verts = [
        (vert[0] * scale, {v: vals[i] * k for v, i, k in lift})
        for vert, vals in zip(vrep.vertices, vrep.values)
    ]
    total = Fraction(0)
    for simplex in triangulate(vrep):
        total += integrate_over_simplex(p, [verts[k] for k in simplex], ps.free)
    return total


def lattice_sum(p: MultiPoly, dom: CascadePolytope, k: int) -> float:
    """Riemann sum of p over the 1/k lattice in the free chart, over k^d.

    Diagnostic companion to integrate: floats, strict interior points
    (every row must be positive at the lattice point), where each cascade
    variable is computed from its row and p is evaluated on those values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dom.dimension():
        return float(point_value((p,), dom, {}, {}))
    ps = parametrize(dom)
    d = len(ps.free)
    if d > 2:
        raise ValueError("lattice diagnostic limited to dimension <= 2")
    vrep = enumerate_vertices(ps.rows, ps.free)
    if not vrep.full_dim:
        return 0.0
    verts = vrep.vertices
    ranges = [
        range(
            min(v[j] * k // v[0] for v in verts) - 1,
            max(-(-v[j] * k // v[0]) for v in verts) + 2,
        )
        for j in range(1, d + 1)
    ]
    frows = [(float(b), [float(c) for c in a], float(s)) for b, a, s in ps.rows]
    pos = {v: i for i, v in enumerate(dom.variables)}
    pidx = [pos[v] for v in p.vars]
    pf = [(exps, c / p.den) for exps, c in p.terms.items()]
    total = 0.0
    eps = 1e-12
    for m in itertools.product(*ranges):
        x = [mi / k for mi in m]
        vals = []
        for b, a, s in frows:
            y = b
            for c, xi in zip(a, x):
                y += c * xi
            if y <= eps:
                break
            vals.append(y / s)
        else:
            val = 0.0
            for exps, c in pf:
                term = c
                for i, e in zip(pidx, exps):
                    if e:
                        term *= vals[i] ** e
                val += term
            total += val
    return total / float(k**d)
