"""Exact integration of polynomials over cascades of twist simplices.

A domain is a sequence of blocks; block j carries fresh positive variables
b_1..b_e and the constraint b_1 + .. + b_e = level_j, where level_j is an
affine expression in variables of earlier blocks (a constant for a root
block).  The measure is the projection measure: eliminate the last
variable of every block and integrate d(remaining coordinates).

A zero-dimensional cascade (all blocks singletons) is a single forced
point, valued by point_value in one forward pass over its blocks.  Any
other cascade is parametrized to an inequality system over the free
coordinates; integration enumerates its vertices exactly (with the value
of every cascade variable there), fans a triangulation from the
lexicographically smallest vertex, and pulls the integrand back to the
standard simplex straight from the cascade variables: on a simplex chart
every cascade variable is affine in t, with its vertex values as the
affine data.  On the standard simplex monomials integrate in closed form:

    int_{t_i >= 0, sum t <= 1} prod t_i^{m_i} dt = prod m_i! / (sum m_i + d)!
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import MultiPoly, common_denominator, compose_affine, var_name

DIM_BOUND = 8

Point = tuple[Fraction, ...]


@dataclass(frozen=True, slots=True)
class Block:
    """Positive variables summing to an affine level."""

    vars: tuple[int, ...]
    level: MultiPoly

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("block needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("block variables must be distinct")
        if not self.level.is_affine():
            raise ValueError("block level must be affine")


@dataclass(frozen=True, slots=True)
class CascadePolytope:
    """Blocks in dependency order; levels only use earlier blocks' variables.

    Level variables that belong to no block at all are allowed and
    reported as external parameters (a subtree's domain is parametric in
    its ancestors); integration requires a closed cascade with none.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        own = {v for blk in self.blocks for v in blk.vars}
        seen: set[int] = set()
        for blk in self.blocks:
            if set(blk.vars) & seen:
                raise ValueError("block variables reused across blocks")
            for vid in blk.level.vars:
                if vid in own and vid not in seen:
                    raise ValueError(
                        f"level of a block uses {var_name(vid)} before it is introduced"
                    )
            seen.update(blk.vars)

    @property
    def variables(self) -> tuple[int, ...]:
        out: list[int] = []
        for blk in self.blocks:
            out.extend(blk.vars)
        return tuple(out)

    @property
    def external_vars(self) -> tuple[int, ...]:
        own = {v for blk in self.blocks for v in blk.vars}
        ext = {v for blk in self.blocks for v in blk.level.vars if v not in own}
        return tuple(sorted(ext))

    def dimension(self) -> int:
        return sum(len(b.vars) - 1 for b in self.blocks)


@dataclass(frozen=True)
class ParamSystem:
    """Cascade rewritten over free coordinates.

    subst maps every original variable to an affine expression in the free
    ones; each expression must be positive on the domain, so the exprs
    tuple doubles as the inequality system (expr > 0).
    """

    free: tuple[int, ...]
    subst: dict[int, MultiPoly]
    exprs: tuple[MultiPoly, ...]  # one per original variable, block by block


# An affine map: free variable (None for the constant) -> nonzero coefficient.
Affine = dict[int | None, Fraction]


def _affine_poly(lin: Affine) -> MultiPoly:
    """The polynomial of an affine map, its terms in the map's order."""
    vs = tuple(sorted(v for v in lin if v is not None))
    unit = {v: tuple(int(w == v) for w in vs) for v in vs}
    unit[None] = (0,) * len(vs)
    return MultiPoly(vs, {unit[v]: c for v, c in lin.items()}, _normalized=True)


def _require_closed(dom: CascadePolytope) -> None:
    ext = dom.external_vars
    if ext:
        names = ", ".join(var_name(v) for v in ext)
        raise ValueError(f"cascade is parametric in {names}; cannot integrate")


def parametrize(dom: CascadePolytope) -> ParamSystem:
    """Eliminate the last variable of every block.

    Each level is composed with the affine maps of the earlier blocks
    directly, term by term, so every expression comes out with the terms
    in the order a substitution would give them.
    """
    _require_closed(dom)
    free: list[int] = []
    maps: dict[int, Affine] = {}
    subst: dict[int, MultiPoly] = {}
    exprs: list[MultiPoly] = []
    for blk in dom.blocks:
        tail: Affine = {}
        level = blk.level
        for exps, c in level.terms.items():
            if 1 not in exps:
                tail[None] = tail[None] + c if None in tail else c
            elif c == -1:  # the usual edge term; negating skips a gcd
                for v, a in maps[level.vars[exps.index(1)]].items():
                    tail[v] = tail[v] - a if v in tail else -a
            else:
                for v, a in maps[level.vars[exps.index(1)]].items():
                    tail[v] = tail[v] + c * a if v in tail else c * a
        tail = {v: c for v, c in tail.items() if c}
        for v in blk.vars[:-1]:
            free.append(v)
            maps[v] = {v: Fraction(1)}
            subst[v] = MultiPoly.variable(v)
            tail[v] = Fraction(-1)
        maps[blk.vars[-1]] = tail
        subst[blk.vars[-1]] = _affine_poly(tail)
        exprs.extend(subst[v] for v in blk.vars)
    return ParamSystem(tuple(free), subst, tuple(exprs))


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


def affine_dim(points: Sequence[Point]) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if not points:
        return -1
    p0 = points[0]
    rows = [common_denominator([x - y for x, y in zip(p, p0)])[0] for p in points[1:]]
    return _bareiss(rows, len(p0))[0]


# -- vertex enumeration ----------------------------------------------------


@dataclass(frozen=True)
class VRepPolytope:
    """Vertices of a closed feasible set plus facet certificates.

    tight[k] lists the inequality indices active at vertices[k], and
    values[k] holds every inequality expression's value there; full_dim
    says whether the affine hull of the vertices has the ambient dimension
    (if not, the open feasible set is empty and integrals vanish).
    """

    dim: int
    vertices: tuple[Point, ...]
    tight: tuple[frozenset[int], ...]
    values: tuple[tuple[Fraction, ...], ...]
    full_dim: bool


def _ineq_rows(
    exprs: Sequence[MultiPoly], free: Sequence[int]
) -> list[tuple[int, list[int], int]]:
    """Rows (b, a, s) of b + a.x >= 0, each the expression times its positive lcm s.

    A positive scale keeps every sign, so feasibility and tightness hold.
    """
    pos = {v: i for i, v in enumerate(free)}
    rows = []
    for e in exprs:
        if not e.is_affine():
            raise ValueError("inequality expressions must be affine")
        b = Fraction(0)
        a = [Fraction(0)] * len(free)
        for exps, c in e.terms.items():
            if sum(exps) == 0:
                b = c
            else:
                i = exps.index(1)
                vid = e.vars[i]
                if vid not in pos:
                    raise ValueError(f"inequality uses non-free variable {var_name(vid)}")
                a[pos[vid]] = c
        nums, scale = common_denominator([b] + a)
        rows.append((nums[0], nums[1:], scale))
    return rows


def enumerate_vertices(
    exprs: Sequence[MultiPoly], free: Sequence[int], dim_bound: int = DIM_BOUND
) -> VRepPolytope:
    """Vertices of {x : expr_i(x) >= 0 for all i} by exact basis enumeration.

    Intended for small bounded systems (the cascade domains); dimensions
    above dim_bound are refused, split the domain instead.
    """
    d = len(free)
    if d == 0:
        raise ValueError("vertex enumeration needs at least one free coordinate")
    if d > dim_bound:
        raise ValueError(
            f"dimension {d} exceeds bound {dim_bound}; decompose the domain first"
        )
    rows = _ineq_rows(exprs, free)
    # a basis holding two parallel rows (such as x >= 0 and c - x >= 0) or a
    # zero row is singular, so a basis takes one row from each of d distinct
    # classes of parallel rows
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, (_, a, _) in enumerate(rows):
        g = math.gcd(*a)
        if g:
            g = g if next(x for x in a if x) > 0 else -g
            classes.setdefault(tuple(x // g for x in a), []).append(i)
    # keyed by the solution (num, den) reduced by its gcd, which is unique
    # per point; the first basis at a point keeps its integer row values
    found: dict[tuple[tuple[int, ...], int], tuple[set[int], int, list[int]]] = {}
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
        tight = {i for i, v in enumerate(vals) if v == 0}
        g = math.gcd(den, *num)
        key = (tuple(x // g for x in num), den // g)
        prev = found.get(key)
        if prev is None:
            found[key] = (tight, den, vals)
        else:
            prev[0].update(tight)
    points = {key: tuple(Fraction(x, key[1]) for x in key[0]) for key in found}
    order = sorted(found, key=points.__getitem__)
    verts = tuple(points[key] for key in order)
    entries = [found[key] for key in order]
    full = len(verts) > 0 and affine_dim(verts) == d
    # row i is s_i times its expression, so the value is vals[i] / (den * s_i)
    return VRepPolytope(
        d,
        verts,
        tuple(frozenset(tight) for tight, _, _ in entries),
        tuple(
            tuple(Fraction(v, den * s) for v, (_, _, s) in zip(vals, rows))
            for _, den, vals in entries
        ),
        full,
    )


# -- triangulation ---------------------------------------------------------


def triangulate(
    vrep: VRepPolytope,
    exprs: Sequence[MultiPoly],
    free: Sequence[int],
    apex_rule: str = "lex_min",
) -> list[tuple[Point, ...]]:
    """Fan triangulation from the lexicographically extreme vertex.

    Recursively cones the chosen apex over triangulations of the facets
    that do not contain it.  Deterministic for a fixed apex_rule.
    """
    if apex_rule not in ("lex_min", "lex_max"):
        raise ValueError("apex_rule must be lex_min or lex_max")
    if not vrep.full_dim:
        return []
    verts = list(vrep.vertices)  # already sorted
    tight_of = list(vrep.tight)
    n_ineq = len(exprs)

    def tri(idxs: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        if len(idxs) == k + 1:
            return [idxs]
        apex = idxs[0] if apex_rule == "lex_min" else idxs[-1]
        seen: set[tuple[int, ...]] = set()
        out: list[tuple[int, ...]] = []
        for ineq in range(n_ineq):
            sub = tuple(i for i in idxs if ineq in tight_of[i])
            if not sub or apex in sub or len(sub) == len(idxs) or sub in seen:
                continue
            seen.add(sub)
            if affine_dim([verts[i] for i in sub]) != k - 1:
                continue
            for s in tri(sub, k - 1):
                out.append(s + (apex,))
        return out

    simplices = tri(tuple(range(len(verts))), vrep.dim)
    return [tuple(verts[i] for i in s) for s in simplices]


def integrate_over_simplex(
    p: MultiPoly, simplex: Sequence[Mapping[int, Fraction]], free: Sequence[int]
) -> Fraction:
    """Exact integral of p over a d-simplex in the free coordinates.

    Each vertex maps every free variable and every variable of p to its
    value there.  On the chart x = v0 + M t each variable v of p is affine,
    v = val_0(v) + sum_j t_j (val_j(v) - val_0(v)), so p is pulled back by
    one affine substitution and integrated with the Dirichlet monomial
    formula on the standard simplex.  The free variables serve as the chart
    coordinates t.
    """
    d = len(free)
    if len(simplex) != d + 1:
        raise ValueError("simplex needs d+1 vertices")
    v0 = simplex[0]
    cols = [[v[f] - v0[f] for f in free] for v in simplex[1:]]
    # det M = det of the integer-scaled columns / prod of their scales
    scaled = [common_denominator(col) for col in cols]
    rank, pivot = _bareiss([nums for nums, _ in scaled], d)
    if rank < d:
        return Fraction(0)
    det_den = math.prod(den for _, den in scaled)
    images = {}
    for vid in p.vars:
        base = v0[vid]
        lin: Affine = {t: v[vid] - base for t, v in zip(free, simplex[1:])}
        lin[None] = base
        images[vid] = _affine_poly({k: c for k, c in lin.items() if c})
    q = compose_affine(p, images)
    # sum c * prod m_i! / (|m| + d)! over the common denominator den * (D + d)!
    nums, den = common_denominator(list(q.terms.values()))
    top = math.factorial(q.total_degree() + d)
    acc = 0
    for exps, c in zip(q.terms, nums):
        w = c * (top // math.factorial(sum(exps) + d))
        for m in exps:
            w *= math.factorial(m)
        acc += w
    return Fraction(abs(pivot) * acc, det_den * den * top)


def point_value(
    factors: Sequence[MultiPoly],
    dom: CascadePolytope,
    at: dict[int, Fraction],
    factor_at: dict[int, Fraction],
) -> Fraction:
    """Product of the factors at the forced point of a zero-dimensional cascade.

    One forward pass over the singleton blocks evaluates each level at the
    earlier blocks' values and returns 0 at the first level <= 0.  The
    cascade must be closed and every factor variable one of its own.

    at (variable id -> forced value) and factor_at (id of a factor ->
    its value there) are memos that this call fills.  Cascades may share
    them only while each shared variable has the same forced value in
    all of them and the factor objects stay alive, as among the trees of
    one flatten call, where every variable belongs to exactly one block.
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


def integrate(p: MultiPoly, dom: CascadePolytope, apex_rule: str = "lex_min") -> Fraction:
    """Exact integral of p over the cascade, projection measure.

    A zero-dimensional domain (all blocks singletons) is valued by
    point_value: p at the forced point when every level is positive, 0
    otherwise.  Otherwise the cascade is parametrized; a constant
    expression <= 0 makes the domain empty before any vertex is
    enumerated, and else p is pulled back onto each simplex of the
    triangulation from the values of the cascade variables at its
    vertices, with no expansion into the free chart.
    """
    _require_closed(dom)
    allowed = set(dom.variables)
    for vid in p.vars:
        if vid not in allowed:
            raise ValueError(f"integrand uses foreign variable {var_name(vid)}")
    if not dom.dimension():
        return point_value((p,), dom, {}, {})
    ps = parametrize(dom)
    if any(not e.vars and e.constant_value() <= 0 for e in ps.exprs):
        return Fraction(0)
    vrep = enumerate_vertices(ps.exprs, ps.free)
    if not vrep.full_dim:
        return Fraction(0)
    # ps.exprs holds one expression per cascade variable, in dom.variables order
    at = {pt: dict(zip(dom.variables, vals)) for pt, vals in zip(vrep.vertices, vrep.values)}
    total = Fraction(0)
    for simplex in triangulate(vrep, ps.exprs, ps.free, apex_rule):
        total += integrate_over_simplex(p, [at[pt] for pt in simplex], ps.free)
    return total


def lattice_sum(p: MultiPoly, dom: CascadePolytope, k: int) -> float:
    """Riemann sum of p over the 1/k lattice in the free chart, over k^d.

    Diagnostic companion to integrate: floats, strict interior points
    (every eliminated expression must be positive at the lattice point).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dom.dimension():
        _require_closed(dom)
        return float(point_value((p,), dom, {}, {}))
    ps = parametrize(dom)
    d = len(ps.free)
    q = p.substitute({v: ps.subst[v] for v in p.vars})
    if d > 2:
        raise ValueError("lattice diagnostic limited to dimension <= 2")
    vrep = enumerate_vertices(ps.exprs, ps.free)
    if not vrep.full_dim:
        return 0.0
    rows = _ineq_rows(ps.exprs, ps.free)
    frows = [(float(b), [float(c) for c in a]) for b, a, _ in rows]
    lo = [min(v[i] for v in vrep.vertices) for i in range(d)]
    hi = [max(v[i] for v in vrep.vertices) for i in range(d)]
    ranges = [
        range(math.floor(lo[i] * k) - 1, math.ceil(hi[i] * k) + 2) for i in range(d)
    ]
    qf = {exps: float(c) for exps, c in q.terms.items()}
    qpos = {v: i for i, v in enumerate(ps.free)}
    qidx = [qpos[v] for v in q.vars]
    total = 0.0
    eps = 1e-12
    for m in itertools.product(*ranges):
        x = [mi / k for mi in m]
        ok = True
        for b, a in frows:
            s = b
            for c, xi in zip(a, x):
                s += c * xi
            if s <= eps:
                ok = False
                break
        if not ok:
            continue
        val = 0.0
        for exps, c in qf.items():
            term = c
            for j, e in enumerate(exps):
                if e:
                    term *= x[qidx[j]] ** e
            val += term
        total += val
    return total / float(k**d)
