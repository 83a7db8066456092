"""Exact arithmetic: rationals, sparse multivariate polynomials, truncated series.

Everything downstream of this module is exact.  Rationals are
``fractions.Fraction`` (always in lowest terms, positive denominator).
Polynomials are sparse maps from exponent tuples to nonzero integer
numerators over one shared denominator, as in FLINT's fmpq_mpoly, so their
arithmetic runs on integers; the tuple positions refer to an ordered list
of integer variable ids carried by each polynomial.  Truncated power
series in one formal variable z have Fraction coefficients, keep a fixed
order N and never consult coefficients beyond it.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' (ASCII, base 10) into a Fraction.

    Anything else, including a zero denominator, is a ValueError.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r} (expected 'p/q' or 'p')")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    """Render a Fraction as 'p/q', or 'p' when the denominator is 1."""
    return str(q)


def common_denominator(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one denominator: xs[i] == nums[i] / den.

    den is the positive lcm of the denominators (1 for no input).
    """
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


_IDS = itertools.count()
_NAMES: dict[int, str] = {}


def fresh_var(name: str | None = None) -> int:
    """A new variable id; the name, when given, is kept for display only."""
    vid = next(_IDS)
    if name is not None:
        _NAMES[vid] = name
    return vid


def var_name(vid: int) -> str:
    return _NAMES.get(vid, f"x{vid}")


PolyLike = Union["MultiPoly", Fraction, int]


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients.

    vars is a strictly increasing tuple of variable ids, terms maps
    exponent tuples (aligned with vars) to nonzero int numerators over the
    shared denominator den > 0, with gcd(den, *terms.values()) == 1.
    Variables with exponent 0 in every term are dropped, so equal
    polynomials compare and hash equal regardless of construction path;
    zero is vars == (), terms == {}, den == 1.  The constructor takes
    rational coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("vars", "terms", "den")

    def __new__(cls, vars: Sequence[int] = (), terms: Mapping | None = None) -> MultiPoly:
        terms = terms or {}
        nums, den = common_denominator(list(terms.values()))
        return MultiPoly._make(*_normalize(tuple(vars), dict(zip(terms, nums)), den))

    @staticmethod
    def _make(vars: tuple[int, ...], terms: dict[tuple[int, ...], int], den: int) -> MultiPoly:
        """A polynomial from parts already in normal form, kept, not copied."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> MultiPoly:
        return MultiPoly._make((), {}, 1)

    @staticmethod
    def const(c: Fraction | int) -> MultiPoly:
        c = Fraction(c)
        if c == 0:
            return MultiPoly.zero()
        return MultiPoly._make((), {(): c.numerator}, c.denominator)

    @staticmethod
    def one() -> MultiPoly:
        return MultiPoly.const(1)

    @staticmethod
    def variable(vid: int) -> MultiPoly:
        return MultiPoly._make((vid,), {(1,): 1}, 1)

    @staticmethod
    def affine(constant: Fraction | int, linear: Mapping[int, Fraction | int]) -> MultiPoly:
        """Build constant + sum of coeff * var."""
        vs = tuple(linear)
        terms = {(0,) * len(vs): constant}
        for i, vid in enumerate(vs):
            terms[tuple(int(j == i) for j in range(len(vs)))] = linear[vid]
        return MultiPoly(vs, terms)

    @staticmethod
    def coerce(x: PolyLike) -> MultiPoly:
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(Fraction(x))

    # -- queries ---------------------------------------------------------

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((), 0), self.den)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_affine(self) -> bool:
        return all(sum(e) <= 1 for e in self.terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: PolyLike) -> MultiPoly:
        other = MultiPoly.coerce(other)
        vs, sa, sb = _align(self, other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {e: c * fa for e, c in sa.items()}
        get = out.get
        for e, c in sb.items():
            s = get(e, 0) + c * fb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._make(*_normalize(vs, out, den))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other: PolyLike) -> MultiPoly:
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> MultiPoly:
        other = MultiPoly.coerce(other)
        if self.vars and other.vars:
            # _align gives sorted distinct vars, and a product of nonzero
            # integer polynomials keeps every variable: only the gcd remains
            vs, sa, sb = _align(self, other)
            return MultiPoly._make(vs, *_lowest(_mul_terms(sa, sb), self.den * other.den))
        # a constant factor c only scales, keeping the other factor's term order
        p, c = (other, self) if other.vars else (self, other)
        if not c.terms:
            return MultiPoly.zero()
        (k,) = c.terms.values()
        out = {e: x * k for e, x in p.terms.items()}
        return MultiPoly._make(p.vars, *_lowest(out, p.den * c.den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return MultiPoly.one()
        # gcd(den, numerators) == 1 carries over to the n-th powers
        return MultiPoly._make(
            self.vars, _int_pow(self.terms, n, (0,) * len(self.vars)), self.den**n
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        if not self.vars:
            # a constant equals its value, so it hashes like it
            return hash(self.constant_value())
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    # -- substitution -----------------------------------------------------

    def evaluate(self, assign: Mapping[int, Fraction]) -> Fraction:
        """Evaluate at a full rational point; every variable needs a value."""
        vals = []
        for vid in self.vars:
            if vid not in assign:
                raise ValueError(f"no value for variable {var_name(vid)}")
            vals.append(assign[vid])
        # the point over one denominator q, each term lifted to the top degree
        q = math.lcm(*(x.denominator for x in vals))
        xs = [x.numerator * (q // x.denominator) for x in vals]
        top = self.total_degree()
        total = 0
        for e, c in self.terms.items():
            m = c * q ** (top - sum(e))
            for x, k in zip(xs, e):
                if k:
                    m *= x**k
            total += m
        return Fraction(total, self.den * q**top)

    def substitute(self, images: Mapping[int, PolyLike]) -> MultiPoly:
        """Replace every variable by its image polynomial and expand.

        Every variable of self must have an image; a missing one is an
        error rather than an identity substitution.  The expansion runs on
        integer numerators (see _expand).
        """
        imgs: list[MultiPoly] = []
        for vid in self.vars:
            if vid not in images:
                raise ValueError(f"no image for variable {var_name(vid)}")
            imgs.append(MultiPoly.coerce(images[vid]))
        vs = tuple(sorted({v for img in imgs for v in img.vars}))
        return _expand(self, vs, [_rekey(img, vs) for img in imgs], [img.den for img in imgs])

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = Fraction(self.terms[e], self.den)
            factors = []
            for vid, k in zip(self.vars, e):
                if k == 1:
                    factors.append(var_name(vid))
                elif k > 1:
                    factors.append(f"{var_name(vid)}^{k}")
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(f"{c}*" + "*".join(factors))
        return " + ".join(bits).replace("+ -", "- ")


def _lowest(terms: dict[tuple[int, ...], int], den: int) -> tuple[dict, int]:
    """terms and den divided by gcd(den, *terms.values()); den > 0."""
    g = math.gcd(den, *terms.values()) if den != 1 else 1
    if g == 1:
        return terms, den
    return {e: c // g for e, c in terms.items()}, den // g


def _normalize(
    vars: tuple[int, ...], terms: Mapping[tuple[int, ...], int], den: int
) -> tuple[tuple[int, ...], dict[tuple[int, ...], int], int]:
    """Normal form of integer numerators over den > 0 (see MultiPoly)."""
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return (), {}, 1
    if any(len(e) != len(vars) for e in terms):
        raise ValueError("exponent tuple length does not match variable count")
    used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
    if len(used) != len(vars):
        vars = tuple(vars[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    if list(vars) != sorted(set(vars)):
        order = sorted(range(len(vars)), key=lambda i: vars[i])
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable id")
        vars = tuple(vars[i] for i in order)
        terms = {tuple(e[i] for i in order): c for e, c in terms.items()}
    return (vars, *_lowest(terms, den))


def _align(a: MultiPoly, b: MultiPoly):
    """Common variable tuple plus both term dicts re-keyed to it."""
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    vs = tuple(sorted(set(a.vars) | set(b.vars)))
    return vs, _rekey(a, vs), _rekey(b, vs)


def _rekey(p: MultiPoly, vs: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    pos = {v: i for i, v in enumerate(vs)}
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        ne = [0] * len(vs)
        for v, k in zip(p.vars, e):
            ne[pos[v]] = k
        out[tuple(ne)] = c
    return out


def _mul_terms(
    sa: Mapping[tuple[int, ...], int], sb: Mapping[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """Product of two integer term dicts keyed over the same variable tuple."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for ea, ca in sa.items():
        for eb, cb in sb.items():
            e = tuple(map(add, ea, eb))
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _int_pow(
    base: dict[tuple[int, ...], int], n: int, one: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """n-th power of an integer term dict, by repeated squaring.

    MultiPoly.__pow__ and _expand share it, so both give a power's terms
    in the same order.
    """
    result = {one: 1}
    while n:
        if n & 1:
            result = _mul_terms(result, base)
        base = _mul_terms(base, base) if n > 1 else base
        n >>= 1
    return result


def _expand(
    p: MultiPoly,
    vs: tuple[int, ...],
    nums: Sequence[dict[tuple[int, ...], int]],
    dens: Sequence[int],
) -> MultiPoly:
    """p with its i-th variable replaced by nums[i] / dens[i], expanded.

    nums[i] is an integer term dict keyed over vs.  A term
    (c / p.den) * prod img_i^k_i is c * prod num_i^k_i over
    p.den * prod dens[i]^k_i; each term's weight c is scaled to the lcm L
    of the prod dens[i]^k_i, so the products and the sum run on integers
    over p.den * L, reduced once at the end.
    """
    one = (0,) * len(vs)
    scales = [math.prod(den**k for den, k in zip(dens, e)) for e in p.terms]
    common = math.lcm(*scales)
    powers: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    out: dict[tuple[int, ...], int] = {}
    for (e, c), s in zip(p.terms.items(), scales):
        m = {one: c * (common // s)}
        for i, k in enumerate(e):
            if not k:
                continue
            key = (i, k)
            if key not in powers:
                powers[key] = _int_pow(nums[i], k, one)
            m = _mul_terms(m, powers[key])
        for me, mc in m.items():
            out[me] = out.get(me, 0) + mc
    return MultiPoly._make(*_normalize(vs, out, p.den * common))


def compose_affine(
    p: MultiPoly, images: Mapping[int, Mapping[int | None, int]], den: int
) -> MultiPoly:
    """p with every variable v replaced by the affine map images[v] / den.

    images[v] maps each variable of the new chart (None for the constant)
    to an integer numerator; den > 0 is shared by all images.  The
    expansion runs on the integer core of MultiPoly.substitute.
    """
    vs = tuple(sorted({t for lin in images.values() for t in lin if t is not None}))
    unit = {t: tuple(int(u == t) for u in vs) for t in vs}
    unit[None] = (0,) * len(vs)
    nums = [{unit[t]: c for t, c in images[vid].items()} for vid in p.vars]
    return _expand(p, vs, nums, [den] * len(nums))


class TruncatedSeries:
    """Power series in one variable, truncated at a fixed order N.

    coeffs[k] is the z^k coefficient for 0 <= k <= N.  Binary operations
    require equal orders; nothing beyond order N is ever consulted, so a
    computation that fixes N = 2*g up front stays exact for every
    coefficient it reports.  Coefficients are Fractions.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Fraction], order: int | None = None) -> None:
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(cs) != order + 1:
            raise ValueError("coefficient list does not match order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    @staticmethod
    def constant(value: Fraction, order: int) -> TruncatedSeries:
        return TruncatedSeries([value] + [Fraction(0)] * order, order)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _check(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, n)

    def pow(self, n: int) -> TruncatedSeries:
        if n < 0:
            raise ValueError("negative series power, invert first")
        result = TruncatedSeries.constant(Fraction(1), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("series inverse needs an invertible constant term")
        inv0 = Fraction(1) / c0
        n = self.order
        out = [inv0]
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                ak = self.coeffs[k]
                if not ak:
                    continue
                acc = acc + ak * out[m - k]
            out.append(acc * (-inv0))
        return TruncatedSeries(out, n)

    def z_derivative_times_z(self) -> TruncatedSeries:
        """z * d/dz, exact on a truncated series (degree is preserved)."""
        return TruncatedSeries([c * Fraction(k) for k, c in enumerate(self.coeffs)], self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"
