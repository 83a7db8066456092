"""Series kernels for the vertex weights of the star-graph recursion.

The building block is S(z) = sinh(z/2)/(z/2), an even series with
[z^{2m}] S = 1/(4^m (2m+1)!).  A vertex of genus g with weight slots
w_1..w_n and a distinguished slot i0 contributes

    A = [z^{2g}]  exp(w_{i0} * z S'(z)/S(z)) * prod_{j != i0} S(w_j z) / S(z)^E

where the exponent E and the sign bookkeeping of the surrounding sum are
configurable (ConventionFlags).  Every factor is the exponential of an
even series: with log S(z) = sum_k lambda_k z^{2k} we have
z S'/S = sum_k 2k lambda_k z^{2k}, so lambda_k = [z^{2k}] (z S'/S) / (2k)
(lambda_1 = 1/24).  Writing u = z^2, p_{2k} = sum_{j != i0} w_j^{2k} and

    c_k = lambda_k (p_{2k} - E + 2k w_{i0}),

the kernel is A = [u^g] exp(sum_{k=1..g} c_k u^k) = e_g, with e_0 = 1 and
m e_m = sum_{k=1..m} k c_k e_{m-k}.  Slots may be fixed rationals or
polynomials in formal variables; the result is a polynomial in the slot
values, even in every slot except i0.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from .exact import MultiPoly, TruncatedSeries

_S_EXPONENTS = ("printed", "shifted")
_TERM_SIGNS = ("printed", "prefactor")


class _ConventionFields(NamedTuple):
    s_exponent: str
    term_sign: str


class ConventionFlags(_ConventionFields):
    """Bookkeeping switches for the recursion.

    s_exponent: 'printed' uses E = 2g-2+n, 'shifted' uses E = 2g-1+n,
        with n the number of weight slots of the vertex.
    term_sign: 'printed' multiplies each graph term by (-1)^ell,
        'prefactor' multiplies each vertex by (-w_{i0})^{2g0-3+n0+e0}.

    The shipped default is (shifted, prefactor); `flatvol validate`
    re-derives that choice against the invariant suite.
    """

    __slots__ = ()

    def __new__(cls, s_exponent: str = "shifted", term_sign: str = "prefactor") -> ConventionFlags:
        if s_exponent not in _S_EXPONENTS:
            raise ValueError(f"s_exponent must be one of {_S_EXPONENTS}")
        if term_sign not in _TERM_SIGNS:
            raise ValueError(f"term_sign must be one of {_TERM_SIGNS}")
        return super().__new__(cls, s_exponent, term_sign)

    def slot_exponent(self, genus: int, nslots: int) -> int:
        if self.s_exponent == "printed":
            return 2 * genus - 2 + nslots
        return 2 * genus - 1 + nslots

    def key(self) -> str:
        return f"{self.s_exponent}:{self.term_sign}"


DEFAULT_CONVENTION = ConventionFlags("shifted", "prefactor")
PRINTED_CONVENTION = ConventionFlags("printed", "printed")

ALL_CONVENTIONS = tuple(
    ConventionFlags(se, ts) for se in _S_EXPONENTS for ts in _TERM_SIGNS
)


@lru_cache(maxsize=None)
def series_S(order: int) -> TruncatedSeries:
    """S(z) = sinh(z/2)/(z/2) truncated at the given order."""
    coeffs = []
    for k in range(order + 1):
        if k % 2:
            coeffs.append(Fraction(0))
        else:
            m = k // 2
            coeffs.append(Fraction(1, 4**m * math.factorial(k + 1)))
    return TruncatedSeries(coeffs, order)


@lru_cache(maxsize=None)
def series_zlogS(order: int) -> TruncatedSeries:
    """z S'(z)/S(z); even, zero constant term, leading term z^2/12."""
    s = series_S(order)
    return s.z_derivative_times_z() * s.inverse()


Slot = Union[Fraction, int, MultiPoly]


def _kernel_body(genus: int, slots: tuple[MultiPoly, ...], i0: int, exponent: int) -> MultiPoly:
    """[u^g] exp(sum_k c_k u^k) by m e_m = sum_k k c_k e_{m-k}; see the module docstring."""
    zlogs = series_zlogS(2 * genus).coeffs
    others = [w for j, w in enumerate(slots) if j != i0]
    c = []
    for k in range(1, genus + 1):
        p2k = sum((w ** (2 * k) for w in others), MultiPoly.zero())
        c.append((p2k - exponent + slots[i0] * (2 * k)) * (zlogs[2 * k] / (2 * k)))
    e = [MultiPoly.one()]
    for m in range(1, genus + 1):
        acc = sum((e[m - k] * c[k - 1] * k for k in range(1, m + 1)), MultiPoly.zero())
        e.append(acc * Fraction(1, m))
    return e[genus]


def kernel_A(
    genus: int,
    slots: Sequence[Slot],
    i0: int,
    convention: ConventionFlags = DEFAULT_CONVENTION,
) -> MultiPoly:
    """Expand the vertex kernel for the given slots.

    slots are fixed rationals or polynomials in formal variables; i0
    indexes the distinguished slot.  The result is a polynomial in the
    formal slots (a constant when every slot is a fixed rational) of
    total degree <= 2*genus, even in every slot other than i0.  The body
    is expanded on these slots at every call and nothing is cached;
    flatten asks for each vertex type's kernel once per FlattenState.
    """
    if genus < 0:
        raise ValueError("vertex genus must be >= 0")
    coerced = tuple(MultiPoly.coerce(Fraction(w) if isinstance(w, int) else w) for w in slots)
    if not 0 <= i0 < len(coerced):
        raise ValueError("i0 must index a slot")
    exponent = convention.slot_exponent(genus, len(coerced))
    if exponent < 0:
        raise ValueError("slot exponent is negative, vertex is unstable")
    return _kernel_body(genus, coerced, i0, exponent)


class AabTable(NamedTuple):
    """Coefficients a_g solving [z^{2g}] F(z)^{2g} = (2g)! [z^{2g}] S(z)^{-1}
    with F(z) = 1 + sum_{g>=1} (2g-1) a_g z^{2g}, solved triangularly."""

    g_max: int
    values: tuple[Fraction, ...]  # a_1 .. a_{g_max}

    def a(self, g: int) -> Fraction:
        if not 1 <= g <= self.g_max:
            raise ValueError("g out of table range")
        return self.values[g - 1]

    def f_coeffs(self) -> list[Fraction]:
        out = [Fraction(0)] * (2 * self.g_max + 1)
        out[0] = Fraction(1)
        for g in range(1, self.g_max + 1):
            out[2 * g] = (2 * g - 1) * self.values[g - 1]
        return out

    def residual(self, g: int) -> Fraction:
        """Re-substitution defect at genus g; zero for a correct table."""
        order = 2 * g
        f = TruncatedSeries(self.f_coeffs()[: order + 1], order)
        lhs = f.pow(order).coefficient(order)
        rhs = math.factorial(order) * series_S(order).inverse().coefficient(order)
        return lhs - rhs


def aab_table(g_max: int) -> AabTable:
    """Solve for a_1..a_{g_max}; the identity is triangular in the a_g."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    order = 2 * g_max
    sinv = series_S(order).inverse()
    fcoeffs = [Fraction(0)] * (order + 1)
    fcoeffs[0] = Fraction(1)
    values: list[Fraction] = []
    for g in range(1, g_max + 1):
        n = 2 * g
        partial = TruncatedSeries(fcoeffs[: n + 1], n)
        known = partial.pow(n).coefficient(n)
        rhs = math.factorial(n) * sinv.coefficient(n)
        # the unknown enters as n * f_n with f_n = (n-1) a_g
        a_g = (rhs - known) / (n * (n - 1))
        values.append(a_g)
        fcoeffs[n] = (n - 1) * a_g
    return AabTable(g_max, tuple(values))


def q_factor(g: int, entries: Sequence[Fraction]) -> float:
    """q(alpha) = (-1)^(g-1+n) / 2^(2-n) * prod_i sin(pi alpha_i), double precision."""
    n = len(entries)
    prod = 1.0
    for a in entries:
        prod *= math.sin(math.pi * float(a))
    return (-1.0) ** ((g - 1 + n) % 2) * 2.0 ** (n - 2) * prod


def det_factor_forms(g: int, entries: Sequence[Fraction]) -> tuple[float, float]:
    """Two evaluation routes for the Gram determinant factor Q(alpha).

    The first expands over the leading n-1 angles (squared chord lengths
    times an alternating elementary-symmetric sum of cotangents), the
    second is the closed product form (2i)^{2g} (-4)^{n-1} prod_i sin(pi a_i).
    Both are real; integral leading angles make the cotangents blow up and
    are rejected.
    """
    n = len(entries)
    if n < 1:
        raise ValueError("need at least one entry")
    for ent in entries[:-1]:
        if Fraction(ent).denominator == 1:
            raise ValueError("cotangent pole: leading entries must be non-integral")
    lead = [float(ent) for ent in entries[:-1]]
    front = (-4.0) ** g
    chord = 1.0
    for x in lead:
        chord *= abs(1.0 - cmath.exp(2j * math.pi * x)) ** 2
    cots = [math.cos(math.pi * x) / math.sin(math.pi * x) for x in lead]
    esym = _elementary_symmetric(cots)
    alt = 0.0
    j = 0
    while n - 2 - 2 * j >= 0:
        alt += (-1.0) ** j * esym[n - 2 - 2 * j]
        j += 1
    sym_form = front * chord * alt
    prod = 1.0
    for e in entries:
        prod *= math.sin(math.pi * float(e))
    closed_form = front * (-4.0) ** (n - 1) * prod
    return sym_form, closed_form


def _elementary_symmetric(xs: Sequence[float]) -> list[float]:
    es = [1.0] + [0.0] * len(xs)
    for x in xs:
        for k in range(len(xs), 0, -1):
            es[k] += x * es[k - 1]
    return es
