"""Tests for the S-series, kernel extraction, conventions, and normalizations."""

import math
import random
from fractions import Fraction

import pytest

from flatvol.exact import MultiPoly, fresh_var
from flatvol.kernels import (
    ALL_CONVENTIONS,
    DEFAULT_CONVENTION,
    PRINTED_CONVENTION,
    ConventionFlags,
    aab_table,
    det_factor_forms,
    kernel_A,
    q_factor,
    series_S,
    series_zlogS,
)


def test_series_S_coefficients():
    s = series_S(8)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == Fraction(1, 24)
    assert s.coefficient(4) == Fraction(1, 1920)
    assert s.coefficient(6) == Fraction(1, 322560)
    assert all(s.coefficient(m) == 0 for m in (1, 3, 5, 7))


def test_series_S_inverse_coefficients():
    inv = series_S(6).inverse()
    assert inv.coefficient(0) == 1
    assert inv.coefficient(2) == Fraction(-1, 24)
    assert inv.coefficient(4) == Fraction(7, 5760)
    assert inv.coefficient(6) == Fraction(-31, 967680)


def test_series_zlogS():
    d = series_zlogS(6)
    assert d.coefficient(0) == 0
    assert d.coefficient(2) == Fraction(1, 12)
    assert d.coefficient(4) == Fraction(-1, 720)


def test_convention_flags():
    assert DEFAULT_CONVENTION.s_exponent == "shifted"
    assert DEFAULT_CONVENTION.term_sign == "prefactor"
    assert PRINTED_CONVENTION.s_exponent == "printed"
    assert PRINTED_CONVENTION.term_sign == "printed"
    assert len(ALL_CONVENTIONS) == 4
    assert len({c.key() for c in ALL_CONVENTIONS}) == 4

    assert ConventionFlags("printed", "prefactor").slot_exponent(1, 2) == 2
    assert ConventionFlags("shifted", "prefactor").slot_exponent(1, 2) == 3

    with pytest.raises(ValueError):
        ConventionFlags("wrong", "prefactor")
    with pytest.raises(ValueError):
        ConventionFlags("shifted", "wrong")


def test_kernel_genus0_is_one():
    for n in (2, 3, 4):
        slots = tuple(MultiPoly.const(Fraction(1, 3)) for _ in range(n))
        for conv in ALL_CONVENTIONS:
            k = kernel_A(0, slots, 0, convention=conv)
            assert k.constant_value() == 1


def test_kernel_genus1_closed_forms():
    a1, a2 = Fraction(1, 2), Fraction(3, 2)
    slots = (MultiPoly.const(a1), MultiPoly.const(a2))

    printed = kernel_A(1, slots, 0, convention=ConventionFlags("printed", "prefactor"))
    assert printed.constant_value() == (2 * a1 + a2 ** 2 - 2) / 24

    shifted = kernel_A(1, slots, 0, convention=DEFAULT_CONVENTION)
    assert shifted.constant_value() == (2 * a1 + a2 ** 2 - 3) / 24

    # the shifted exponent zeroes the kernel at the integer corner (1,1)
    ones = (MultiPoly.one(), MultiPoly.one())
    assert kernel_A(1, ones, 0, convention=DEFAULT_CONVENTION).constant_value() == 0
    printed_ones = kernel_A(1, ones, 0, convention=ConventionFlags("printed", "prefactor"))
    assert printed_ones.constant_value() == Fraction(1, 24)


def test_kernel_symbolic_matches_closed_form():
    x, y = fresh_var("kx"), fresh_var("ky")
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    body = kernel_A(1, (px, py), 0, convention=DEFAULT_CONVENTION)
    expected = (px * 2 + py * py - MultiPoly.const(Fraction(3))) * Fraction(1, 24)
    assert body == expected

    # i0 selects which slot feeds the exponential factor
    body2 = kernel_A(1, (px, py), 1, convention=DEFAULT_CONVENTION)
    expected2 = (py * 2 + px * px - MultiPoly.const(Fraction(3))) * Fraction(1, 24)
    assert body2 == expected2


def test_kernel_slot_forms_agree_with_constant_slots():
    # a kernel in formal slots, evaluated at a point, equals the kernel of
    # the slots' values there, for every slot form and distinguished slot
    x, y = fresh_var("cx"), fresh_var("cy")
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    slots = (px * Fraction(-1), py)
    body = kernel_A(1, slots, 0, convention=DEFAULT_CONVENTION)
    again = kernel_A(1, slots, 0, convention=DEFAULT_CONVENTION)
    assert body == again
    pt = {x: Fraction(2, 3), y: Fraction(1, 5)}
    direct = kernel_A(
        1,
        (MultiPoly.const(Fraction(-2, 3)), MultiPoly.const(Fraction(1, 5))),
        0,
        convention=DEFAULT_CONVENTION,
    ).constant_value()
    assert body.evaluate(pt) == direct

    half = MultiPoly.const(Fraction(1, 2))
    cases = (
        (px + Fraction(1, 3), py),  # affine, non-monomial slot
        (px, -px, half),  # two slots sharing one variable
    )
    for genus in (1, 2):
        for case in cases:
            at_pt = tuple(MultiPoly.const(w.evaluate(pt)) for w in case)
            for i0 in range(len(case)):
                kp = kernel_A(genus, case, i0, convention=DEFAULT_CONVENTION)
                const = kernel_A(genus, at_pt, i0, convention=DEFAULT_CONVENTION)
                assert kp.evaluate(pt) == const.constant_value()


def _conv(a, b):
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _inv(a):
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[k] * out[m - k] for k in range(1, m + 1)) / a[0])
    return out


def _exp(a):
    # exp of a series with zero constant term: m e_m = sum_k k a_k e_{m-k}
    out = [Fraction(1)]
    for m in range(1, len(a)):
        out.append(sum(k * a[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


def _oracle_kernel(genus, slots, i0, exponent):
    """[z^2g] S^-E * exp(w_i0 zS'/S) * prod_{j != i0} S(w_j z), on Fraction lists."""
    n = 2 * genus + 1
    s = [Fraction(1, 4 ** (k // 2) * math.factorial(k + 1)) if k % 2 == 0 else Fraction(0)
         for k in range(n)]
    acc = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(exponent):
        acc = _conv(acc, _inv(s))
    for j, w in enumerate(slots):
        if j != i0:
            acc = _conv(acc, [c * w ** k for k, c in enumerate(s)])
    zlogs = _conv([k * c for k, c in enumerate(s)], _inv(s))
    acc = _conv(acc, _exp([slots[i0] * c for c in zlogs]))
    return acc[2 * genus]


def test_kernel_matches_series_oracle():
    values = (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(1, 5), Fraction(-7, 4))
    for genus in (2, 3, 4):
        for n in (3, 4, 5):
            slots = values[:n]
            for conv in (ConventionFlags("printed", "prefactor"), DEFAULT_CONVENTION):
                exponent = conv.slot_exponent(genus, n)
                for i0 in range(n):
                    got = kernel_A(genus, slots, i0, convention=conv).constant_value()
                    assert got == _oracle_kernel(genus, slots, i0, exponent), (genus, n, conv, i0)


def test_kernel_genus2_slot_degrees():
    x = fresh_var("gx")
    slots = (MultiPoly.variable(x), MultiPoly.const(Fraction(1, 2)))
    # ordinary slots enter through S(x z): degree 2g; the distinguished
    # slot enters through the exponential of z^2-and-up terms: degree g
    body = kernel_A(2, slots, 1, convention=DEFAULT_CONVENTION)
    assert max(e[body.vars.index(x)] for e in body.terms) == 4
    body_i0 = kernel_A(2, slots, 0, convention=DEFAULT_CONVENTION)
    assert max(e[body_i0.vars.index(x)] for e in body_i0.terms) == 2


def test_aab_values():
    table = aab_table(3)
    assert table.a(1) == Fraction(-1, 24)
    assert table.a(2) == Fraction(1, 640)
    assert table.a(3) == Fraction(-305, 580608)
    for g in (1, 2, 3):
        assert table.residual(g) == 0
    with pytest.raises(ValueError):
        table.a(4)


def test_q_factor_known_point():
    q = q_factor(0, (Fraction(1, 2),) * 4)
    assert abs(q - (-4.0)) < 1e-12

    # one extra hand value: g=1, n=2 at (1/2, 3/2) gives sin products -1
    q2 = q_factor(1, (Fraction(1, 2), Fraction(3, 2)))
    assert abs(q2 - (-1.0)) < 1e-12


def test_det_factor_forms_agree():
    rng = random.Random(31)
    checked = 0
    while checked < 100:
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if 2 * g - 2 + n <= 0:
            continue
        s = 2 * g - 2 + n
        ks = [rng.randint(1, 30) for _ in range(n)]
        tot = sum(ks)
        entries = tuple(Fraction(s * k, tot) for k in ks)
        if any(e.denominator == 1 for e in entries):
            continue
        sym, closed = det_factor_forms(g, entries)
        assert math.isfinite(sym) and math.isfinite(closed)
        assert abs(sym - closed) <= 1e-12 * max(1.0, abs(closed))
        checked += 1


def test_det_factor_forms_rejects_integer_entries():
    with pytest.raises(ValueError):
        det_factor_forms(1, (Fraction(1), Fraction(1)))
    # an integral last entry is a wall point, not a cotangent pole; both
    # forms and q would return roundoff for an exact zero there
    wall = (Fraction(1, 2), Fraction(1, 2), Fraction(2))
    with pytest.raises(ValueError, match="^wall point: some entry is a positive integer, q vanishes$"):
        det_factor_forms(1, wall)
    with pytest.raises(ValueError, match="^cotangent pole"):
        det_factor_forms(1, wall[::-1])
    for entries in (wall, wall[::-1], (Fraction(1), Fraction(1))):
        with pytest.raises(ValueError, match="^wall point"):
            q_factor(1, entries)
