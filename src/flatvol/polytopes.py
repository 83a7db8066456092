"""Exact integration of polynomials over cascades of twist simplices.

A domain is a sequence of blocks; block j carries fresh positive variables
b_1..b_e and the constraint b_1 + .. + b_e = level_j, where level_j is an
affine expression in variables of earlier blocks (a constant for a root
block).  The measure is the projection measure: eliminate the last
variable of every block and integrate d(remaining coordinates).

Integration parametrizes the cascade to an inequality system over the
free coordinates, enumerates its vertices exactly, fans a triangulation
from the lexicographically smallest vertex, and pulls the integrand back
to the standard simplex where monomials integrate in closed form:

    int_{t_i >= 0, sum t <= 1} prod t_i^{m_i} dt = prod m_i! / (sum m_i + d)!
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact import MultiPoly, compose_affine, fresh_var, var_name

DIM_BOUND = 8

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    var_order: tuple[int, ...]
    subst: dict[int, MultiPoly]
    exprs: tuple[MultiPoly, ...]  # aligned with var_order


def parametrize(dom: CascadePolytope) -> ParamSystem:
    """Eliminate the last variable of every block."""
    ext = dom.external_vars
    if ext:
        names = ", ".join(var_name(v) for v in ext)
        raise ValueError(f"cascade is parametric in {names}; cannot integrate")
    free: list[int] = []
    subst: dict[int, MultiPoly] = {}
    var_order: list[int] = []
    exprs: list[MultiPoly] = []
    for blk in dom.blocks:
        level = blk.level.substitute({v: subst[v] for v in blk.level.vars})
        head = blk.vars[:-1]
        for v in head:
            free.append(v)
            subst[v] = MultiPoly.variable(v)
        tail_expr = level
        for v in head:
            tail_expr = tail_expr - MultiPoly.variable(v)
        subst[blk.vars[-1]] = tail_expr
        for v in blk.vars:
            var_order.append(v)
            exprs.append(subst[v])
    return ParamSystem(tuple(free), tuple(var_order), subst, tuple(exprs))


# -- exact linear algebra -------------------------------------------------


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a square rational system; None when singular."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def matrix_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    a = [list(r) for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def affine_dim(points: Sequence[Point]) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if not points:
        return -1
    p0 = points[0]
    rows = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return matrix_rank(rows)


def det_square(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


# -- vertex enumeration ----------------------------------------------------


@dataclass(frozen=True)
class VRepPolytope:
    """Vertices of a closed feasible set plus facet certificates.

    tight[k] lists the inequality indices active at vertices[k]; full_dim
    says whether the affine hull of the vertices has the ambient dimension
    (if not, the open feasible set is empty and integrals vanish).
    """

    dim: int
    vertices: tuple[Point, ...]
    tight: tuple[frozenset[int], ...]
    full_dim: bool


def _ineq_rows(exprs: Sequence[MultiPoly], free: Sequence[int]) -> list[tuple[Fraction, list[Fraction]]]:
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
        rows.append((b, a))
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
    found: dict[Point, set[int]] = {}
    for combo in itertools.combinations(range(len(rows)), d):
        mat = [rows[i][1] for i in combo]
        rhs = [-rows[i][0] for i in combo]
        sol = solve_square(mat, rhs)
        if sol is None:
            continue
        pt = tuple(sol)
        vals = [b + sum(c * x for c, x in zip(a, pt)) for b, a in rows]
        if any(v < 0 for v in vals):
            continue
        tight = {i for i, v in enumerate(vals) if v == 0}
        prev = found.get(pt)
        if prev is None:
            found[pt] = tight
        else:
            prev |= tight
    verts = tuple(sorted(found))
    full = len(verts) > 0 and affine_dim(verts) == d
    return VRepPolytope(d, verts, tuple(frozenset(found[v]) for v in verts), full)


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


_T_VARS: list[int] = []


def _t_var(k: int) -> int:
    while len(_T_VARS) <= k:
        _T_VARS.append(fresh_var())
    return _T_VARS[k]


def integrate_over_simplex(p: MultiPoly, simplex: Sequence[Point], free: Sequence[int]) -> Fraction:
    """Exact integral of p over a d-simplex in the free coordinates.

    Pulls back through the affine chart x = v0 + M t and applies the
    Dirichlet monomial formula on the standard simplex.
    """
    d = len(free)
    if len(simplex) != d + 1:
        raise ValueError("simplex needs d+1 vertices")
    v0 = simplex[0]
    cols = [[v[i] - v0[i] for i in range(d)] for v in simplex[1:]]
    det = det_square([[cols[j][i] for j in range(d)] for i in range(d)])
    if det == 0:
        return Fraction(0)
    images = {}
    for i, vid in enumerate(free):
        images[vid] = MultiPoly.affine(
            v0[i], {_t_var(j): cols[j][i] for j in range(d)}
        )
    q = compose_affine(p, images)
    total = Fraction(0)
    for exps, c in q.terms.items():
        msum = sum(exps)
        num = Fraction(1)
        for m in exps:
            num *= math.factorial(m)
        total += c * num / math.factorial(msum + d)
    return abs(det) * total


def integrate(p: MultiPoly, dom: CascadePolytope, apex_rule: str = "lex_min") -> Fraction:
    """Exact integral of p over the cascade, projection measure.

    Zero-dimensional domains (all blocks singletons) become substitution
    atoms: the value of p at the forced point when every level is
    positive, 0 otherwise.
    """
    ps = parametrize(dom)
    allowed = set(dom.variables)
    for vid in p.vars:
        if vid not in allowed:
            raise ValueError(f"integrand uses foreign variable {var_name(vid)}")
    q = p.substitute({v: ps.subst[v] for v in p.vars})
    if not ps.free:
        if any(e.constant_value() <= 0 for e in ps.exprs):
            return Fraction(0)
        return q.constant_value()
    vrep = enumerate_vertices(ps.exprs, ps.free)
    if not vrep.full_dim:
        return Fraction(0)
    total = Fraction(0)
    for simplex in triangulate(vrep, ps.exprs, ps.free, apex_rule):
        total += integrate_over_simplex(q, simplex, ps.free)
    return total


def lattice_sum(p: MultiPoly, dom: CascadePolytope, k: int) -> float:
    """Riemann sum of p over the 1/k lattice in the free chart, over k^d.

    Diagnostic companion to integrate: floats, strict interior points
    (every eliminated expression must be positive at the lattice point).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ps = parametrize(dom)
    d = len(ps.free)
    q = p.substitute({v: ps.subst[v] for v in p.vars})
    if d == 0:
        if any(e.constant_value() <= 0 for e in ps.exprs):
            return 0.0
        return float(q.constant_value())
    if d > 2:
        raise ValueError("lattice diagnostic limited to dimension <= 2")
    vrep = enumerate_vertices(ps.exprs, ps.free)
    if not vrep.full_dim:
        return 0.0
    rows = _ineq_rows(ps.exprs, ps.free)
    frows = [(float(b), [float(c) for c in a]) for b, a in rows]
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
