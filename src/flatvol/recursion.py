"""Evaluation of the flat volume function v and its normalizations.

v(alpha) is assembled by enumerating star graphs for (g, n, i0),
flattening each into polynomial-over-polytope terms, and integrating
exactly.  The result is a rational number; the normalized volume is

    volhat(alpha) = (2 pi)^(2g-2+n) / ((2g-2+n)! * q(alpha)) * v(alpha)

with q the sine product from kernels.q_factor.  Under the shipped
convention v is independent of i0 and symmetric in the entries; the
`validate` harness exercises exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import MultiPoly, fresh_var
from .graphs import (
    WeightVector,
    domain_of,
    enumerate_k_twists,
    enumerate_star_graphs,
    flatten,
    twist_multiplicity,
)
from .kernels import ConventionFlags, DEFAULT_CONVENTION, q_factor
from .polytopes import Block, CascadePolytope, integrate


@dataclass(frozen=True)
class FlatValue:
    """v at one weight vector, with the per-tree breakdown."""

    alpha: WeightVector
    i0: int
    convention: ConventionFlags
    value: Fraction
    terms: tuple[tuple[str, Fraction], ...]


def evaluate(
    alpha: WeightVector,
    i0: int = 1,
    convention: ConventionFlags = DEFAULT_CONVENTION,
    i0_policy: str = "smallest_marking",
) -> FlatValue:
    """Exact value of v(alpha) with the i0-rooted graph sum.

    Entries must be positive rationals summing to 2g-2+n.  The terms
    field lists (tree ident, exact contribution), sorted by ident.
    """
    if i0 not in alpha.labels():
        raise ValueError(f"i0 = {i0} is not a marking label")
    terms: list[tuple[str, Fraction]] = []
    for gph in enumerate_star_graphs(alpha.genus, alpha.labels(), i0):
        for t in flatten(gph, alpha, convention, i0_policy):
            terms.append((t.ident, integrate(t.integrand, t.domain)))
    terms.sort()
    total = sum((v for _, v in terms), Fraction(0))
    return FlatValue(alpha, i0, convention, total, tuple(terms))


def genus0_n4_oracle(alpha: WeightVector) -> Fraction:
    """Independent closed form for g = 0, n = 4:

        -alpha_1 + sum_{m >= 2} max(0, alpha_1 + alpha_m - 1).

    Symmetric in all four entries even though alpha_1 looks special.
    """
    if alpha.genus != 0 or alpha.n != 4:
        raise ValueError("oracle is specific to genus 0 with 4 entries")
    a = alpha.entries
    out = -a[0]
    for m in range(1, 4):
        out += max(Fraction(0), a[0] + a[m] - 1)
    return out


def has_integer_entry(alpha: WeightVector) -> bool:
    return any(e.denominator == 1 and e > 0 for e in alpha.entries)


def volume_normalization(alpha: WeightVector) -> float:
    """(2 pi)^m / (m! * q(alpha)) with m = 2g-2+n; the v -> volhat factor.

    Integer entries make q vanish, so wall points are rejected here
    rather than letting float roundoff hide the division by zero.
    """
    if has_integer_entry(alpha):
        raise ValueError("q(alpha) vanishes, volhat undefined at a wall point")
    m = 2 * alpha.genus - 2 + alpha.n
    q = q_factor(alpha.genus, alpha.entries)
    return (2.0 * math.pi) ** m / (math.factorial(m) * q)


def volhat(
    alpha: WeightVector,
    i0: int = 1,
    convention: ConventionFlags = DEFAULT_CONVENTION,
) -> float:
    """Normalized volume, double precision; wall points are an error."""
    if has_integer_entry(alpha):
        raise ValueError("wall point: some entry is a positive integer, volhat undefined")
    fv = evaluate(alpha, i0, convention)
    return volume_normalization(alpha) * float(fv.value)


@dataclass(frozen=True)
class ScanRow:
    t: Fraction
    alpha: tuple[Fraction, ...]
    value: Fraction | None
    volhat: float | None
    flag: str  # "", "wall", or "invalid"


def scan(
    genus: int,
    n: int = 2,
    steps: int = 100,
    base: Sequence[Fraction] | None = None,
    direction: Sequence[Fraction] | None = None,
    t_min: Fraction | None = None,
    t_max: Fraction | None = None,
    i0: int = 1,
    convention: ConventionFlags = DEFAULT_CONVENTION,
) -> list[ScanRow]:
    """Sample v along the line alpha(t) = base + t * direction.

    The default slice (n = 2) is alpha(t) = (t, 2g - t) for t in (0, 2g),
    sampled at t = t_min + i*(t_max - t_min)/(steps+1), i = 1..steps.
    Rows hitting a wall (integer entry) carry flag "wall" and no volhat;
    rows leaving the positive cone carry flag "invalid" and no value.
    Under the default convention v is symmetric in the entries, so rows
    with the same entry multiset share one evaluation.
    """
    if base is None or direction is None:
        if n != 2:
            raise ValueError("default scan slice needs n = 2; pass base and direction")
        if genus < 1:
            raise ValueError("default slice needs genus >= 1")
        base = (Fraction(0), Fraction(2 * genus))
        direction = (Fraction(1), Fraction(-1))
        if t_min is None:
            t_min = Fraction(0)
        if t_max is None:
            t_max = Fraction(2 * genus)
    else:
        base = tuple(Fraction(b) for b in base)
        direction = tuple(Fraction(d) for d in direction)
        if len(base) != n or len(direction) != n:
            raise ValueError("base and direction must have n entries")
        if sum(direction) != 0:
            raise ValueError("direction entries must sum to 0")
        if sum(base) != 2 * genus - 2 + n:
            raise ValueError("base entries must sum to 2g-2+n")
        if t_min is None or t_max is None:
            raise ValueError("explicit slices need t_min and t_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    memo: dict[tuple[Fraction, ...], Fraction] = {}
    rows: list[ScanRow] = []
    span = Fraction(t_max) - Fraction(t_min)
    for i in range(1, steps + 1):
        t = Fraction(t_min) + span * Fraction(i, steps + 1)
        entries = tuple(b + t * d for b, d in zip(base, direction))
        if any(e <= 0 for e in entries):
            rows.append(ScanRow(t, entries, None, None, "invalid"))
            continue
        alpha = WeightVector(genus, entries)
        if convention == DEFAULT_CONVENTION:
            key = tuple(sorted(alpha.entries))
            if key not in memo:
                memo[key] = evaluate(alpha, i0, convention).value
            value = memo[key]
        else:
            value = evaluate(alpha, i0, convention).value
        if has_integer_entry(alpha):
            rows.append(ScanRow(t, entries, value, None, "wall"))
        else:
            rows.append(
                ScanRow(t, entries, value, volume_normalization(alpha) * float(value), "")
            )
    return rows


@dataclass(frozen=True)
class RiemannRow:
    graph: str
    k: int
    lattice: Fraction
    exact: Fraction
    rel_error: float


def riemann_diagnostic(
    alpha: WeightVector, ks: Sequence[int], i0: int = 1
) -> list[RiemannRow]:
    """Compare twist lattice sums against exact domain integrals.

    For each star graph with edges and a nonempty domain, sums the edge
    multiplicity prod beta over k-twists, scaled by k^{-h1}, against the
    exact integral of the same monomial with the projection measure.
    Needs k * level integral for every block (choose k with k*alpha integral).
    """
    wmap = alpha.weight_map()
    out: list[RiemannRow] = []
    for gph in enumerate_star_graphs(alpha.genus, alpha.labels(), i0):
        if not gph.outer:
            continue
        info = domain_of(gph, wmap)
        if info.empty:
            continue
        bvars = [tuple(fresh_var() for _ in range(ov.edges)) for ov in gph.outer]
        blocks = tuple(
            Block(vs, MultiPoly.const(c)) for vs, c in zip(bvars, info.levels)
        )
        mono = MultiPoly.one()
        for vs in bvars:
            for v in vs:
                mono = mono * MultiPoly.variable(v)
        exact = integrate(mono, CascadePolytope(blocks))
        for k in ks:
            for c in info.levels:
                if (k * c).denominator != 1:
                    raise ValueError(
                        f"k = {k} does not make level {c} integral; pick k with k*alpha integral"
                    )
            total = Fraction(0)
            for tw in enumerate_k_twists(gph, wmap, k):
                total += twist_multiplicity(tw)
            lattice = total / Fraction(k**gph.h1)
            err = abs(float(lattice - exact)) / abs(float(exact)) if exact else float(lattice != 0)
            out.append(RiemannRow(gph.encode(wmap), k, lattice, exact, err))
    return out
