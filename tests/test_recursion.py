"""Tests for the flat recursion, volume conversion, scans, and diagnostics."""

import math
import random
from fractions import Fraction

import pytest

from flatvol import exact, kernels, recursion
from flatvol.graphs import WeightVector
from flatvol.kernels import PRINTED_CONVENTION, ConventionFlags
from flatvol.recursion import (
    evaluate,
    genus0_n4_oracle,
    has_integer_entry,
    riemann_diagnostic,
    scan,
    volhat,
    volume_normalization,
)


def _w(g, *entries):
    return WeightVector(g, tuple(Fraction(e) for e in entries))


def _random_alpha(rng, g, n, avoid_integer=True):
    s = 2 * g - 2 + n
    while True:
        ks = [rng.randint(1, 30) for _ in range(n)]
        tot = sum(ks)
        entries = tuple(Fraction(s * k, tot) for k in ks)
        if avoid_integer and any(e.denominator == 1 for e in entries):
            continue
        return WeightVector(g, entries)


def test_base_case_is_one():
    rng = random.Random(3)
    for _ in range(10):
        w = _random_alpha(rng, 0, 3, avoid_integer=False)
        fv = evaluate(w)
        assert fv.value == 1
        assert len(fv.terms) == 1


def test_frozen_genus0_values():
    assert evaluate(_w(0, "1/2", "1/2", "1/2", "1/2")).value == Fraction(-1, 2)
    assert evaluate(_w(0, "9/10", "3/10", "1/2", "3/10")).value == Fraction(-1, 10)
    assert evaluate(_w(0, "1", "1/3", "1/3", "1/3")).value == 0
    assert evaluate(_w(0, "1/5", "9/10", "1/2", "2/5")).value == Fraction(-1, 10)
    assert evaluate(_w(0, "11/10", "3/10", "3/10", "3/10")).value == Fraction(1, 10)
    assert evaluate(_w(0, "17/10", "3/10", "1/4", "1/4", "1/2")).value == Fraction(-21, 100)


def test_frozen_higher_genus_values():
    assert evaluate(_w(1, 1)).value == 0
    assert evaluate(_w(1, 1, 1)).value == 0
    assert evaluate(_w(1, "1/2", "3/2")).value == Fraction(-1, 192)
    assert evaluate(_w(1, "1/2", "3/2"), i0=2).value == Fraction(-1, 192)
    assert evaluate(_w(1, "5/4", "5/4", "1/2")).value == Fraction(-5, 3072)
    assert evaluate(_w(2, 3)).value == 0
    assert evaluate(_w(2, "1/2", "7/2")).value == Fraction(19, 49152)
    assert evaluate(_w(2, "7/4", "9/4")).value == Fraction(171, 2097152)


def test_terms_sum_to_value():
    for w in (_w(0, "9/10", "3/10", "1/2", "3/10"), _w(1, "1/2", "3/2"), _w(2, "1/2", "7/2")):
        fv = evaluate(w)
        assert sum((v for _, v in fv.terms), Fraction(0)) == fv.value
        idents = [ident for ident, _ in fv.terms]
        assert idents == sorted(idents)


def test_genus1_slice_closed_form():
    # v(t, 2-t) = -t(1-t)^2/24 on 0 < t < 1, and symmetric under t <-> 2-t
    for t in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        want = -t * (1 - t) ** 2 / 24
        assert evaluate(_w(1, t, 2 - t)).value == want
        assert evaluate(_w(1, 2 - t, t)).value == want


def test_oracle_symmetry_and_equality():
    rng = random.Random(41)
    import itertools
    for _ in range(50):
        w = _random_alpha(rng, 0, 4, avoid_integer=False)
        ref = genus0_n4_oracle(w)
        for perm in itertools.permutations(w.entries):
            assert genus0_n4_oracle(WeightVector(0, perm)) == ref
    for _ in range(20):
        w = _random_alpha(rng, 0, 4)
        assert evaluate(w).value == genus0_n4_oracle(w)


def test_oracle_rejects_wrong_shape():
    with pytest.raises(ValueError):
        genus0_n4_oracle(_w(1, "1/2", "3/2"))
    with pytest.raises(ValueError):
        genus0_n4_oracle(_w(0, "1/4", "1/4", "1/2"))


def test_printed_convention_differs():
    w = _w(0, "9/10", "3/10", "1/2", "3/10")
    assert evaluate(w, convention=PRINTED_CONVENTION).value == Fraction(1, 5)
    assert evaluate(w).value == Fraction(-1, 10)


def test_i0_independence_random():
    rng = random.Random(59)
    for g, n in ((0, 4), (0, 5), (1, 2), (1, 3)):
        for _ in range(10):
            w = _random_alpha(rng, g, n)
            vals = {i: evaluate(w, i0=i).value for i in (1, n)}
            assert len(set(vals.values())) == 1, (g, n, w.entries)


def test_sn_invariance_random():
    rng = random.Random(61)
    for g, n in ((0, 4), (0, 5), (1, 2), (1, 3)):
        for _ in range(10):
            w = _random_alpha(rng, g, n)
            ref = evaluate(w).value
            order = list(range(n))
            rng.shuffle(order)
            perm_entries = tuple(w.entries[j] for j in order)
            new_i0 = order.index(0) + 1
            got = evaluate(WeightVector(g, perm_entries), i0=new_i0).value
            assert got == ref, (g, n, w.entries, order)


def test_integer_entry_vanishing():
    # five integer-entry points per shape; the (1,2) slice has a single
    # interior integer point (1,1), so it is covered once
    points = [
        _w(0, 1, "1/3", "1/3", "1/3"),
        _w(0, 1, "1/2", "1/4", "1/4"),
        _w(0, 1, "1/5", "2/5", "2/5"),
        _w(0, "1/6", 1, "1/3", "1/2"),
        _w(0, "3/10", "1/5", 1, "1/2"),
        _w(0, 1, "2/3", "2/3", "1/3", "1/3"),
        _w(0, 2, "1/4", "1/4", "1/4", "1/4"),
        _w(0, 1, "3/4", "3/4", "1/4", "1/4"),
        _w(0, "1/2", "1/2", 1, "1/2", "1/2"),
        _w(0, "7/8", 1, "1/8", "1/2", "1/2"),
        _w(1, 1, 1),
        _w(1, 1, "1/2", "3/2"),
        _w(1, 2, "1/2", "1/2"),
        _w(1, 1, 1, 1),
        _w(1, 1, "3/4", "5/4"),
        _w(1, 2, "3/4", "1/4"),
        _w(1, "7/4", 1, "1/4"),
    ]
    for w in points:
        assert has_integer_entry(w)
        assert evaluate(w).value == 0, w.entries


def test_evaluate_input_checks():
    with pytest.raises(ValueError):
        evaluate(_w(0, "1/2", "1/2", "1/2", "1/2"), i0=5)
    with pytest.raises(ValueError):
        evaluate(_w(0, "1/2", "1/2", "1/2", "1/2"), i0=0)
    with pytest.raises(ValueError):
        WeightVector(0, (Fraction(-1, 2), Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))


def test_state_stays_bounded():
    # kernel bodies are cached per vertex shape and engine variables get
    # no stored name, so many evaluations leave no growing global state
    rng = random.Random(40)
    names = len(exact._NAMES)
    for i in range(1, 41):
        evaluate(_random_alpha(rng, 1, 4))
        if i == 10:
            after_warmup = len(kernels._KERNEL_CACHE)
    assert len(kernels._KERNEL_CACHE) == after_warmup
    assert len(exact._NAMES) == names


def test_scan_memo(monkeypatch):
    calls = []

    def counting(alpha, *args, **kwargs):
        calls.append(tuple(sorted(alpha.entries)))
        return evaluate(alpha, *args, **kwargs)

    monkeypatch.setattr(recursion, "evaluate", counting)
    rows = scan(1, steps=9)
    # the default convention is symmetric: each entry multiset is evaluated
    # once, and the mirrored rows (t, 2 - t) and (2 - t, t) share the value
    assert len(calls) == len(set(calls)) == 5
    assert {tuple(sorted(r.alpha)) for r in rows} == set(calls)
    for r, mirror in zip(rows, reversed(rows)):
        assert r.alpha == mirror.alpha[::-1] and r.value == mirror.value

    calls.clear()
    rows = scan(1, steps=9, convention=PRINTED_CONVENTION)
    assert len(calls) == sum(1 for r in rows if r.flag != "invalid") == 9


def test_volume_normalization_and_volhat():
    w = _w(0, "1/2", "1/2", "1/2", "1/2")
    assert abs(volhat(w) - math.pi ** 2 / 4) < 1e-12

    w2 = _w(1, "1/2", "3/2")
    assert abs(volhat(w2) - math.pi ** 2 / 96) < 1e-12

    # volhat sign: q < 0 and v < 0 on the all-fractional genus-0 chamber
    w3 = _w(0, "9/10", "3/10", "1/2", "3/10")
    assert volhat(w3) > 0

    with pytest.raises(ValueError):
        volhat(_w(1, 1, 1))
    with pytest.raises(ValueError):
        volume_normalization(_w(1, 1, 1))


def test_volhat_bounded_near_wall():
    # v vanishes at the wall, so volhat stays bounded on a shrinking approach
    vals = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        vals.append(abs(volhat(_w(1, 1 - eps, 1 + eps))))
    assert max(vals) < 10.0


def test_wall_quadratic_order_n2():
    ratios = []
    for eps in (Fraction(1, 10), Fraction(1, 40), Fraction(1, 160)):
        for sgn in (1, -1):
            val = evaluate(_w(1, 1 + sgn * eps, 1 - sgn * eps)).value
            ratios.append(abs(float(val)) / float(eps) ** 2)
    assert max(ratios) / min(ratios) < 1.5


def test_small_angle_decay():
    vals = [abs(evaluate(_w(1, eps, 2 - eps)).value)
            for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))]
    assert vals[0] > vals[1] > vals[2]


def test_scan_default_slice():
    rows = scan(1, steps=3)
    assert [r.t for r in rows] == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    assert rows[0].alpha == (Fraction(1, 2), Fraction(3, 2))
    assert rows[0].flag == ""
    assert rows[0].value == Fraction(-1, 192)
    assert rows[1].flag == "wall"
    assert rows[1].value == 0
    assert rows[1].volhat is None
    assert rows[2].value == rows[0].value  # symmetric slice


def test_scan_explicit_slice_flags():
    rows = scan(
        1,
        n=2,
        steps=3,
        base=(Fraction(1, 2), Fraction(3, 2)),
        direction=(Fraction(1), Fraction(-1)),
        t_min=Fraction(-1),
        t_max=Fraction(1),
    )
    assert [r.flag for r in rows] == ["invalid", "", "wall"]
    assert rows[0].value is None
    assert rows[2].alpha == (Fraction(1), Fraction(1))


def test_scan_input_checks():
    with pytest.raises(ValueError):
        scan(1, n=3)  # default slice is two-entry only
    with pytest.raises(ValueError):
        scan(1, base=(Fraction(1), Fraction(1)), direction=(Fraction(1), Fraction(1)),
             t_min=Fraction(0), t_max=Fraction(1))  # direction must sum to 0
    with pytest.raises(ValueError):
        scan(1, steps=0)


def test_scan_sign_pattern_genus1():
    rows = scan(1, steps=41)
    for r in rows:
        assert r.flag in ("", "wall")
        assert -r.value >= 0


def test_riemann_diagnostic_converges():
    rows = riemann_diagnostic(_w(1, "3/2", "1/2"), (20, 40, 80))
    one_dim = [r for r in rows if "(0,2)" in r.graph]
    assert len(one_dim) == 3
    errs = [r.rel_error for r in one_dim]
    assert errs[0] > errs[1] > errs[2]
    assert one_dim[0].exact == Fraction(1, 48)

    atom = [r for r in rows if "(1,1)" in r.graph]
    assert atom and all(r.rel_error == 0 for r in atom)


def test_riemann_diagnostic_needs_compatible_k():
    with pytest.raises(ValueError):
        riemann_diagnostic(_w(1, "3/2", "1/2"), (3,))
