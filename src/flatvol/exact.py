"""Exact arithmetic: rationals, sparse multivariate polynomials, truncated series.

Everything downstream of this module is exact.  Rationals are
``fractions.Fraction`` (always in lowest terms, positive denominator).
Polynomials are sparse maps from exponent tuples to nonzero rational
coefficients; the tuple positions refer to an ordered list of integer
variable ids carried by each polynomial.  Truncated power series in one
formal variable z keep a fixed order N and never consult coefficients
beyond it; the coefficient ring is either Fraction or MultiPoly.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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
    """Sparse multivariate polynomial with Fraction coefficients.

    vars is a strictly increasing tuple of variable ids, terms maps
    exponent tuples (aligned with vars) to nonzero coefficients.
    Variables with exponent 0 in every term are dropped, so equal
    polynomials compare equal regardless of construction path.
    Instances are treated as immutable.
    """

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        vars: Sequence[int] = (),
        terms: Mapping[tuple[int, ...], Fraction] | None = None,
        *,
        _normalized: bool = False,
    ) -> None:
        vt = tuple(vars)
        tm = dict(terms) if terms else {}
        if not _normalized:
            vt, tm = _normalize(vt, tm)
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "terms", tm)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> MultiPoly:
        return MultiPoly((), {}, _normalized=True)

    @staticmethod
    def const(c: Fraction | int) -> MultiPoly:
        c = Fraction(c)
        if c == 0:
            return MultiPoly.zero()
        return MultiPoly((), {(): c}, _normalized=True)

    @staticmethod
    def one() -> MultiPoly:
        return MultiPoly.const(1)

    @staticmethod
    def variable(vid: int) -> MultiPoly:
        return MultiPoly((vid,), {(1,): Fraction(1)}, _normalized=True)

    @staticmethod
    def affine(constant: Fraction | int, linear: Mapping[int, Fraction | int]) -> MultiPoly:
        """Build constant + sum of coeff * var."""
        p = MultiPoly.const(constant)
        for vid, c in linear.items():
            p = p + Fraction(c) * MultiPoly.variable(vid)
        return p

    @staticmethod
    def coerce(x: PolyLike) -> MultiPoly:
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(Fraction(x))

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, vid: int) -> int:
        if vid not in self.vars:
            return 0
        i = self.vars.index(vid)
        return max((e[i] for e in self.terms), default=0)

    def is_affine(self) -> bool:
        return all(sum(e) <= 1 for e in self.terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: PolyLike) -> MultiPoly:
        other = MultiPoly.coerce(other)
        vs, sa, sb = _align(self, other)
        out = dict(sa)
        for e, c in sb.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(vs, out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other: PolyLike) -> MultiPoly:
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MultiPoly.zero()
            return MultiPoly(
                self.vars, {e: k * c for e, k in self.terms.items()}, _normalized=True
            )
        vs, sa, sb = _align(self, other)
        return MultiPoly(vs, _mul_terms(sa, sb))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(Fraction(other))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- substitution -----------------------------------------------------

    def evaluate(self, assign: Mapping[int, Fraction]) -> Fraction:
        """Evaluate at a full rational point; every variable needs a value."""
        total = Fraction(0)
        vals = []
        for vid in self.vars:
            if vid not in assign:
                raise ValueError(f"no value for variable {var_name(vid)}")
            vals.append(Fraction(assign[vid]))
        for e, c in self.terms.items():
            m = c
            for x, k in zip(vals, e):
                if k:
                    m *= x**k
            total += m
        return total

    def substitute(self, images: Mapping[int, PolyLike]) -> MultiPoly:
        """Replace every variable by its image polynomial and expand.

        Every variable of self must have an image; a missing one is an
        error rather than an identity substitution.
        """
        imgs: list[MultiPoly] = []
        for vid in self.vars:
            if vid not in images:
                raise ValueError(f"no image for variable {var_name(vid)}")
            imgs.append(MultiPoly.coerce(images[vid]))
        vs = tuple(sorted({v for img in imgs for v in img.vars}))
        one = (0,) * len(vs)
        powers: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            m = {one: c}
            for i, k in enumerate(e):
                if not k:
                    continue
                key = (i, k)
                if key not in powers:
                    powers[key] = _rekey(imgs[i] ** k, vs)
                m = _mul_terms(m, powers[key])
            for me, mc in m.items():
                out[me] = out.get(me, 0) + mc
        return MultiPoly(vs, out)

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
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


def _normalize(
    vars: tuple[int, ...], terms: dict[tuple[int, ...], Fraction]
) -> tuple[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    terms = {e: Fraction(c) for e, c in terms.items() if c != 0}
    if not terms:
        return (), {}
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
    return vars, terms


def _align(a: MultiPoly, b: MultiPoly):
    """Common variable tuple plus both term dicts re-keyed to it."""
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    vs = tuple(sorted(set(a.vars) | set(b.vars)))
    return vs, _rekey(a, vs), _rekey(b, vs)


def _rekey(p: MultiPoly, vs: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    pos = {v: i for i, v in enumerate(vs)}
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        ne = [0] * len(vs)
        for v, k in zip(p.vars, e):
            ne[pos[v]] = k
        out[tuple(ne)] = c
    return out


def _mul_terms(
    sa: Mapping[tuple[int, ...], Fraction], sb: Mapping[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Product of two term dicts keyed over the same variable tuple."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in sa.items():
        for eb, cb in sb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def compose_affine(p: MultiPoly, images: Mapping[int, PolyLike]) -> MultiPoly:
    """Substitute an affine expression for every variable of p.

    Thin wrapper over MultiPoly.substitute that additionally rejects
    non-affine images, since the simplex pullback relies on affineness.
    """
    for vid, img in images.items():
        if isinstance(img, MultiPoly) and not img.is_affine():
            raise ValueError(f"image of {var_name(vid)} is not affine")
    return p.substitute(images)


Coeff = Union[Fraction, MultiPoly]


def _zero_like(c: Coeff) -> Coeff:
    return MultiPoly.zero() if isinstance(c, MultiPoly) else Fraction(0)


def _one_like(c: Coeff) -> Coeff:
    return MultiPoly.one() if isinstance(c, MultiPoly) else Fraction(1)


def _is_zero_coeff(c: Coeff) -> bool:
    return c.is_zero() if isinstance(c, MultiPoly) else c == 0


class TruncatedSeries:
    """Power series in one variable, truncated at a fixed order N.

    coeffs[k] is the z^k coefficient for 0 <= k <= N.  Binary operations
    require equal orders; nothing beyond order N is ever consulted, so a
    computation that fixes N = 2*g up front stays exact for every
    coefficient it reports.  Coefficients may be Fractions or MultiPolys
    (one ring per series).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None) -> None:
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
    def constant(value: Coeff, order: int) -> TruncatedSeries:
        z = _zero_like(value)
        return TruncatedSeries([value] + [z] * order, order)

    def coefficient(self, k: int) -> Coeff:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _check(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        n = self.order
        zero = _zero_like(self.coeffs[0])
        out: list[Coeff] = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero_coeff(a):
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if _is_zero_coeff(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, n)

    def scale(self, c: Fraction | int | MultiPoly) -> TruncatedSeries:
        return TruncatedSeries([a * c for a in self.coeffs], self.order)

    def pow(self, n: int) -> TruncatedSeries:
        if n < 0:
            raise ValueError("negative series power, invert first")
        result = TruncatedSeries.constant(_one_like(self.coeffs[0]), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exp(self) -> TruncatedSeries:
        """exp of a series with zero constant term.

        Uses m*e_m = sum_{k=1..m} k * s_k * e_{m-k}.
        """
        if not _is_zero_coeff(self.coeffs[0]):
            raise ValueError("series exp needs zero constant term")
        n = self.order
        one = _one_like(self.coeffs[0] if n == 0 else self.coeffs[min(1, n)])
        out: list[Coeff] = [one]
        for m in range(1, n + 1):
            acc = _zero_like(one)
            for k in range(1, m + 1):
                sk = self.coeffs[k]
                if _is_zero_coeff(sk):
                    continue
                acc = acc + (sk * out[m - k]) * Fraction(k)
            out.append(acc * Fraction(1, m))
        return TruncatedSeries(out, n)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if isinstance(c0, MultiPoly):
            if not c0.is_constant() or c0.constant_value() == 0:
                raise ValueError("series inverse needs an invertible constant term")
            inv0 = Fraction(1) / c0.constant_value()
        else:
            if c0 == 0:
                raise ValueError("series inverse needs an invertible constant term")
            inv0 = Fraction(1) / c0
        n = self.order
        out: list[Coeff] = [_one_like(c0) * inv0]
        for m in range(1, n + 1):
            acc = _zero_like(c0)
            for k in range(1, m + 1):
                ak = self.coeffs[k]
                if _is_zero_coeff(ak):
                    continue
                acc = acc + ak * out[m - k]
            out.append(acc * (-inv0))
        return TruncatedSeries(out, n)

    def z_derivative_times_z(self) -> TruncatedSeries:
        """z * d/dz, exact on a truncated series (degree is preserved)."""
        return TruncatedSeries([c * Fraction(k) for k, c in enumerate(self.coeffs)], self.order)

    def lift(self) -> TruncatedSeries:
        """Coerce Fraction coefficients to constant MultiPolys."""
        return TruncatedSeries(
            [c if isinstance(c, MultiPoly) else MultiPoly.const(c) for c in self.coeffs],
            self.order,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"
