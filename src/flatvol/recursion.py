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

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .exact import MultiPoly, common_denominator, fresh_var
from .graphs import (
    FlattenState,
    WeightVector,
    domain_of,
    enumerate_k_twists,
    enumerate_star_graphs,
    flatten,
    twist_multiplicity,
)
from .kernels import ConventionFlags, DEFAULT_CONVENTION, q_factor
from .polytopes import Block, CascadePolytope, integrate, point_value


class FlatValue(NamedTuple):
    """v at one weight vector, with one term per root star graph.

    terms holds (StarGraph.encode(weights), sum of the graph's trees) for
    every root graph in enumeration order, zero sums included.
    """

    alpha: WeightVector
    i0: int
    convention: ConventionFlags
    value: Fraction
    terms: tuple[tuple[str, Fraction], ...]


def evaluate(
    alpha: WeightVector,
    i0: int = 1,
    convention: ConventionFlags = DEFAULT_CONVENTION,
    i0_policy: str | None = None,
) -> FlatValue:
    """Exact value of v(alpha) with the i0-rooted graph sum.

    Entries must be positive rationals summing to 2g-2+n.  i0_policy goes
    to FlattenState; under the default convention no term depends on it.
    One state is built per call and flattens every root graph, so each
    lower vertex type is expanded once per evaluation; it is dropped on
    return.

    A tree whose domain has no free coordinate is valued by point_value
    from its unmultiplied node factors.  The forced values of variables
    and factors are memoized over one root graph's tree list, where each
    variable belongs to one block and so has one forced value; the memo
    is dropped with the list.  Any other tree's factors go to integrate,
    which multiplies them only once the domain is known to be non-empty.
    """
    if i0 not in alpha.labels():
        raise ValueError(f"i0 = {i0} is not a marking label")
    weights = alpha.weight_map()
    state = FlattenState(alpha, convention, i0_policy)
    terms: list[tuple[str, Fraction]] = []
    for gph in enumerate_star_graphs(alpha.genus, alpha.labels(), i0):
        at: dict[int, Fraction] = {}
        factor_at: dict[int, Fraction] = {}
        value = Fraction(0)
        for t in flatten(gph, state):
            if t.domain.dimension():
                value += integrate(t.factors, t.domain)
            else:
                value += point_value(t.factors, t.domain, at, factor_at)
        terms.append((gph.encode(weights), value))
    total = sum((v for _, v in terms), Fraction(0))
    return FlatValue(alpha, i0, convention, total, tuple(terms))


def genus0_oracle(alpha: WeightVector) -> Fraction:
    """Independent closed form of v for g = 0 and n >= 3:

        (-1)^n * sum_{I containing 1} (-1)^|I| * max(0, 1 - mu_I)^(n-3),

    with mu_i = 1 - alpha_i and mu_I the sum of mu_i over I; at n = 3,
    max(0, x)^0 reads as [x > 0].  It holds for every 0 < alpha_i < 1
    (McMullen, "The Gauss-Bonnet theorem for cone manifolds and volumes of
    moduli spaces", Amer. J. Math. 139 (2017), after Thurston, "Shapes of
    polyhedra", 1998).  At n <= 4 it holds for any positive entries; from
    n = 5 it fails outside the cube, so such entries are refused.
    """
    if alpha.genus != 0:
        raise ValueError("oracle is specific to genus 0")
    if alpha.n >= 5 and not all(0 < a < 1 for a in alpha.entries):
        raise ValueError("genus-0 oracle needs every entry in (0, 1) from n = 5")
    first, *rest = (1 - a for a in alpha.entries)
    total = Fraction(0)
    for picks in itertools.product((0, 1), repeat=len(rest)):
        x = 1 - first - sum(m for m, k in zip(rest, picks) if k)
        if x > 0:
            total += (-1) ** (1 + sum(picks)) * x ** (alpha.n - 3)
    return (-1) ** alpha.n * total


def has_integer_entry(alpha: WeightVector) -> bool:
    return any(e.denominator == 1 and e > 0 for e in alpha.entries)


def volume_normalization(alpha: WeightVector) -> float:
    """(2 pi)^m / (m! * q(alpha)) with m = 2g-2+n; the v -> volhat factor.

    Integer entries make q vanish, so wall points are rejected here
    rather than letting float roundoff hide the division by zero.
    """
    if has_integer_entry(alpha):
        raise ValueError("wall point: some entry is a positive integer, volhat undefined")
    m = 2 * alpha.genus - 2 + alpha.n
    q = q_factor(alpha.genus, alpha.entries)
    return (2.0 * math.pi) ** m / (math.factorial(m) * q)


def volhat(
    alpha: WeightVector,
    i0: int = 1,
    convention: ConventionFlags = DEFAULT_CONVENTION,
) -> float:
    """Normalized volume, double precision; wall points are an error."""
    return volume_normalization(alpha) * float(evaluate(alpha, i0, convention).value)


class ScanRow(NamedTuple):
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

    Under every convention v is a polynomial of degree at most
    D = 4g - 3 + n in t between the walls sum_{i in S} alpha_i(t) in Z
    that the line crosses.  Those walls cut the rows into chambers.  A
    chamber of at least D + 2 rows is evaluated at D + 1 spread rows, and
    every other row gets the exact value of the interpolating polynomial
    through them.  One more evaluated row checks it; if the check
    disagrees, the chamber is evaluated row by row.  Rows on a wall and
    shorter chambers are evaluated directly.  Each point is evaluated
    once; under the default convention, where v is symmetric in the
    entries, rows with the same entry multiset share one evaluation.
    """
    if (base is None) != (direction is None):
        raise ValueError("pass both base and direction, or neither")
    if base is None:
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
    t_min, t_max = Fraction(t_min), Fraction(t_max)
    ts = [t_min + (t_max - t_min) * Fraction(i, steps + 1) for i in range(1, steps + 1)]
    alphas = [tuple(b + t * d for b, d in zip(base, direction)) for t in ts]
    valid = [all(e > 0 for e in entries) for entries in alphas]
    memo: dict[tuple[Fraction, ...], Fraction] = {}

    def value_at(i: int) -> Fraction:
        key = tuple(sorted(alphas[i])) if convention == DEFAULT_CONVENTION else alphas[i]
        if key not in memo:
            memo[key] = evaluate(WeightVector(genus, alphas[i]), i0, convention).value
        return memo[key]

    values: list[Fraction | None] = [None] * steps
    walls = _walls(base, direction, t_min, t_max)
    degree = 4 * genus - 3 + n
    chambers: dict[int, list[int]] = {}
    for i, t in enumerate(ts):
        k = bisect.bisect_left(walls, t)
        if valid[i] and (k == len(walls) or walls[k] != t):
            chambers.setdefault(k, []).append(i)
    for idx in chambers.values():
        if len(idx) < degree + 2:
            continue
        # D + 2 picks at floor(k * L / (D + 1)) from either end, so a
        # mirrored chamber picks mirrored rows and the memo shares them;
        # the middle pick is the check row
        L, E = len(idx) - 1, degree + 1
        picks = [idx[k * L // E] if 2 * k <= E else idx[L - (E - k) * L // E] for k in range(E + 1)]
        check = picks.pop(E // 2)
        poly = _interpolant(picks, [value_at(i) for i in picks])
        if poly(check) == value_at(check):
            for i in idx:
                values[i] = poly(i)

    rows: list[ScanRow] = []
    for i, (t, entries) in enumerate(zip(ts, alphas)):
        if not valid[i]:
            rows.append(ScanRow(t, entries, None, None, "invalid"))
            continue
        alpha = WeightVector(genus, entries)
        value = values[i] if values[i] is not None else value_at(i)
        if has_integer_entry(alpha):
            rows.append(ScanRow(t, entries, value, None, "wall"))
        else:
            rows.append(
                ScanRow(t, entries, value, volume_normalization(alpha) * float(value), "")
            )
    return rows


def _walls(
    base: Sequence[Fraction], direction: Sequence[Fraction], t_min: Fraction, t_max: Fraction
) -> list[Fraction]:
    """Sorted t in [t_min, t_max] (either order) where a subset sum of alpha(t) is an integer.

    The entries sum to an integer, so a subset and its complement share
    their walls and only subsets without the last entry are visited.  A
    subset sum that does not move along the line cuts no chamber, integer
    or not, and is skipped: a line lying inside a wall is cut into
    chambers by the walls it crosses, like any other line.
    """
    lo, hi = sorted((t_min, t_max))
    walls: set[Fraction] = set()
    for S in itertools.chain.from_iterable(
        itertools.combinations(range(len(base) - 1), size) for size in range(1, len(base))
    ):
        b = sum(base[i] for i in S)
        d = sum(direction[i] for i in S)
        if d == 0:
            continue
        s_lo, s_hi = sorted((b + d * lo, b + d * hi))
        walls.update((k - b) / d for k in range(math.ceil(s_lo), math.floor(s_hi) + 1))
    return sorted(walls)


def _interpolant(xs: Sequence[int], ys: Sequence[Fraction]) -> Callable[[int], Fraction]:
    """The polynomial through (xs[j], ys[j]) at integer xs, in Newton form.

    The Newton coefficients share one denominator, so each value costs one
    integer Horner pass and one Fraction.
    """
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    nums, den = common_denominator(c)
    steps = tuple(zip(reversed(xs[:-1]), reversed(nums[:-1])))

    def poly(x: int) -> Fraction:
        acc = nums[-1]
        for xj, cj in steps:
            acc = acc * (x - xj) + cj
        return Fraction(acc, den)

    return poly


class RiemannRow(NamedTuple):
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
        edges = tuple(v for vs in bvars for v in vs)
        mono = MultiPoly(edges, {(1,) * len(edges): Fraction(1)})
        exact = integrate((mono,), CascadePolytope(blocks))
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
