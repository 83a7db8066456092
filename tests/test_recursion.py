"""Tests for the flat recursion, volume conversion, scans, and diagnostics."""

import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatvol import exact, graphs, recursion
from flatvol.graphs import (
    FlattenState,
    OuterVertex,
    WeightVector,
    enumerate_star_graphs,
    flatten,
)
from flatvol.kernels import ALL_CONVENTIONS, DEFAULT_CONVENTION, PRINTED_CONVENTION, ConventionFlags
from flatvol.polytopes import Block, CascadePolytope, integrate, parametrize
from flatvol.recursion import (
    evaluate,
    genus0_oracle,
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


def test_genus3_pinned_value_and_i0_independence():
    # the first pinned point of the benchmark's genus3 workload
    w = _w(3, "1/3", "17/3")
    assert evaluate(w).value == Fraction(-242, 1594323)
    assert evaluate(w, i0=2).value == Fraction(-242, 1594323)


def test_genus2_invariance_three_markings():
    w = _w(2, "4/7", "9/7", "22/7")
    want = Fraction(2104, 17294403)
    assert evaluate(w).value == want
    assert evaluate(_w(2, "22/7", "4/7", "9/7")).value == want
    assert evaluate(w, i0=2).value == want


@pytest.mark.parametrize(
    "entries, want",
    [
        (("1/2", "2/3", "5/6", "4/5", "1/5"), Fraction(7, 180)),
        (("1/2", "2/3", "5/6", "4/5", "7/10", "1/2"), Fraction(-137, 2700)),
    ],
)
def test_genus0_closed_form(entries, want):
    w = _w(0, *entries)
    assert genus0_oracle(w) == want
    assert evaluate(w).value == want


def _unit_cube_genus0_points(n):
    # mu_i = 1 - alpha_i = 2 w_i / sum(w) lies in (0, 1) and the mu_i sum to 2,
    # so the alpha_i lie in (0, 1) and sum to n - 2
    @st.composite
    def draw(draw):
        ws = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        assume(2 * max(ws) < sum(ws))
        return tuple(1 - Fraction(2 * w, sum(ws)) for w in ws)

    return draw()


@pytest.mark.parametrize("n, examples", [(5, 12), (6, 10), (7, 3)])
def test_genus0_closed_form_on_drawn_points(n, examples):
    # every genus-0 tree has a zero-dimensional domain, so this checks the
    # point valuation against a formula that does not use the engine
    @settings(derandomize=True, max_examples=examples, deadline=None)
    @given(_unit_cube_genus0_points(n))
    def check(entries):
        w = WeightVector(0, entries)
        assert evaluate(w).value == genus0_oracle(w)

    check()


@pytest.mark.parametrize(
    "genus, entries, want",
    [
        (1, ("5/4", "5/4", "1/2"), Fraction(-5, 3072)),
        (0, ("1/2", "2/3", "5/6", "4/5", "7/10", "1/2"), Fraction(-137, 2700)),
        (2, ("4/7", "9/7", "22/7"), Fraction(2104, 17294403)),
    ],
)
def test_tree_values_match_integrand_integrals(genus, entries, want):
    # under every policy, each root graph's term in evaluate is the sum over
    # its trees of the integral of the multiplied-out integrand, and a point
    # tree's integral is also checked against its forced point found by
    # parametrize, 0 when a level is <= 0
    w = _w(genus, *entries)
    point_terms_nonzero = set()
    for policy in graphs.I0_POLICIES:
        expected = []
        for gph in enumerate_star_graphs(w.genus, w.labels(), 1):
            total = Fraction(0)
            for t in flatten(gph, FlattenState(w, i0_policy=policy)):
                integrand = math.prod(t.factors)
                value = integrate((integrand,), t.domain)
                if not t.domain.dimension():
                    rows = parametrize(t.domain).rows
                    forced = {v: Fraction(b, s) for v, (b, _, s) in zip(t.domain.variables, rows)}
                    empty = any(x <= 0 for x in forced.values())
                    assert value == (0 if empty else integrand.evaluate(forced)), gph.encode()
                    point_terms_nonzero.add(value != 0)
                total += value
            expected.append((gph.encode(w.weight_map()), total))
        assert evaluate(w, i0_policy=policy).terms == tuple(expected), policy
    # zero and nonzero point trees, except at the genus-1 point, where the
    # empty-level prune leaves no zero point tree
    assert point_terms_nonzero == ({True} if genus == 1 else {False, True})
    assert evaluate(w).value == want


def _fixed(p, beta):
    return p.substitute({v: beta.get(v, exact.MultiPoly.variable(v)) for v in p.vars})


@pytest.mark.parametrize(
    "genus, entries, vertex",
    [
        (2, ("4/7", "9/7", "22/7"), OuterVertex(0, 3, (2,))),
        (2, ("4/7", "9/7", "22/7"), OuterVertex(1, 2, (2,))),
        (3, ("5/3", "13/3"), OuterVertex(2, 2, (2,))),
    ],
)
def test_outer_vertex_subtrees_sum_to_lower_volume(genus, entries, vertex):
    # the paper's induction inside the engine: fix an outer vertex's edge
    # weights beta at an interior point of its block; its subtrees, with
    # beta substituted into their factors and levels, integrate in sum to
    # v at the vertex's genus and weights (alpha on its legs, beta)
    w = _w(genus, *entries)
    legs = [w.weight_map()[l] for l in vertex.legs]
    level = vertex.euler - sum(legs)
    shares = range(2, vertex.edges + 2)
    betas = [level * k / sum(shares) for k in shares]
    checked = 0
    for gph in enumerate_star_graphs(w.genus, w.labels(), 1):
        if vertex not in gph.outer:
            continue
        state = FlattenState(w, i0_policy="smallest_marking")
        flatten(gph, state)
        # a root vertex type has no inherited legs; its ids start with its edges
        ids, subtrees = state.memo[vertex.genus, vertex.legs, 0, vertex.edges]
        beta = dict(zip(ids, betas))
        total = Fraction(0)
        for factors, blocks in subtrees:
            dom = CascadePolytope(tuple(Block(b.vars, _fixed(b.level, beta)) for b in blocks))
            total += integrate(tuple(_fixed(f, beta) for f in factors), dom)
        want = evaluate(WeightVector(vertex.genus, tuple(legs + betas))).value
        assert total == want, gph.encode()
        checked += 1
    assert checked


def test_terms_sum_to_value():
    # one term per root graph, zero or not, labelled by its encoding
    values = []
    for w in (_w(0, "9/10", "3/10", "1/2", "3/10"), _w(1, "1/2", "3/2"), _w(2, "1/2", "7/2")):
        fv = evaluate(w)
        assert sum((v for _, v in fv.terms), Fraction(0)) == fv.value
        gphs = enumerate_star_graphs(w.genus, w.labels(), 1)
        assert [label for label, _ in fv.terms] == [gph.encode(w.weight_map()) for gph in gphs]
        values.extend(v for _, v in fv.terms)
    assert 0 in values


def _no_zero_sum_skip(monkeypatch):
    monkeypatch.setattr(graphs, "_forces_wall", lambda edges, inherited, c, convention: False)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_one_marking_wall_value_is_zero(genus, monkeypatch):
    # v_{g,1}(2g - 1) = 0 from every tree, the legless case of the wall rule
    _no_zero_sum_skip(monkeypatch)
    assert evaluate(_w(genus, 2 * genus - 1)).value == 0


@pytest.mark.parametrize(
    "genus, entries",
    [
        (1, ("5/4", "5/4", "1/2")),
        (2, ("4/7", "9/7", "22/7")),
        (3, ("5/3", "13/3")),
        (1, ("1/2", "2/3", "5/6", "4/3", "7/6", "3/2")),
    ],
)
def test_zero_sum_skip_drops_only_cancelling_trees(genus, entries, monkeypatch):
    # with the wall rule off every root graph keeps its sum, so the extra
    # trees sum to 0 per graph, and a root graph the rule drops has its
    # own trees sum to 0; the rule also drops trees below the root
    w = _w(genus, *entries)
    gphs = enumerate_star_graphs(genus, w.labels(), 1)
    with_skip = evaluate(w).terms
    trees = [len(flatten(gph, FlattenState(w))) for gph in gphs]
    skipped = [
        i
        for i, gph in enumerate(gphs)
        if any(
            graphs._forces_wall(ov.edges, (), c, DEFAULT_CONVENTION)
            for ov, c in zip(gph.outer, graphs.domain_of(gph, w.weight_map()).levels)
        )
    ]
    _no_zero_sum_skip(monkeypatch)
    assert evaluate(w).terms == with_skip
    trees_off = [len(flatten(gph, FlattenState(w))) for gph in gphs]
    assert all(a <= b for a, b in zip(trees, trees_off))
    assert skipped and all(with_skip[i][1] == 0 for i in skipped)
    assert all(trees[i] == 0 for i in skipped) and any(trees_off[i] for i in skipped)
    assert any(0 < trees[i] < trees_off[i] for i in range(len(gphs)))


@pytest.mark.parametrize(
    "genus, entries",
    [
        (1, ("5/4", "5/4", "1/2")),
        (0, ("1/2", "2/3", "5/6", "4/5", "7/10", "1/2")),
        (2, ("4/7", "9/7", "22/7")),
        (3, ("5/3", "13/3")),
    ],
)
def test_policies_agree_per_graph_under_default_convention(genus, entries):
    w = _w(genus, *entries)
    terms = {policy: evaluate(w, i0_policy=policy).terms for policy in graphs.I0_POLICIES}
    assert terms["smallest_marking"] == terms["largest_marking"] == terms["edge_first"]


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
        ref = genus0_oracle(w)
        for perm in itertools.permutations(w.entries):
            assert genus0_oracle(WeightVector(0, perm)) == ref
    for _ in range(20):
        w = _random_alpha(rng, 0, 4)
        assert evaluate(w).value == genus0_oracle(w)


def test_oracle_rejects_wrong_shape():
    with pytest.raises(ValueError):
        genus0_oracle(_w(1, "1/2", "3/2"))
    # at n = 3, max(0, x)^0 reads as [x > 0], which gives the base case 1
    for entries in (("1/4", "1/4", "1/2"), ("1/3", "1/3", "1/3"), ("7/10", "1/5", "1/10")):
        assert genus0_oracle(_w(0, *entries)) == 1
    # from n = 5 the formula fails outside the cube: here the engine gives
    # -1/4 and the formula -5/12, so the oracle refuses the point
    w = _w(0, "3/2", "1/3", "1/3", "1/3", "1/2")
    assert evaluate(w).value == Fraction(-1, 4)
    with pytest.raises(ValueError):
        genus0_oracle(w)


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
    # star-graph shapes are cached per (g, n, i0 position), a finite set
    # that warm-up fills, and engine variables get no stored name, so many
    # evaluations leave no growing global state
    rng = random.Random(40)
    names = len(exact._NAMES)
    for i in range(1, 41):
        evaluate(_random_alpha(rng, 1, 4))
        if i == 10:
            after_warmup = graphs._enumerate_shapes.cache_info().currsize
    assert graphs._enumerate_shapes.cache_info().currsize == after_warmup
    assert len(exact._NAMES) == names


def test_evaluation_leaves_no_cyclic_garbage():
    # triangulation and graph enumeration free what they build on return,
    # so nothing waits for the cycle collector
    gc.collect()
    gc.disable()
    try:
        evaluate(_w(3, "5/3", "13/3"))
        evaluate(_w(1, "1/2", "2/3", "5/6", "4/3", "7/6", "3/2"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_traced_memory_stays_bounded():
    # after ten warm-up evaluations of one point, thirty more hold no more
    # memory
    w = _w(1, "1/3", "1/2", "5/4", "23/12")
    for _ in range(10):
        evaluate(w)
    tracemalloc.start()
    try:
        held = []
        for rounds in (0, 15, 15):
            for _ in range(rounds):
                evaluate(w)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held) - held[0] <= 4096, held


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


def test_volume_normalization_and_volhat(monkeypatch):
    w = _w(0, "1/2", "1/2", "1/2", "1/2")
    assert abs(volhat(w) - math.pi ** 2 / 4) < 1e-12

    w2 = _w(1, "1/2", "3/2")
    assert abs(volhat(w2) - math.pi ** 2 / 96) < 1e-12

    # volhat sign: q < 0 and v < 0 on the all-fractional genus-0 chamber
    w3 = _w(0, "9/10", "3/10", "1/2", "3/10")
    assert volhat(w3) > 0

    # one wall refusal, in volume_normalization, with the message the CLI
    # prints; volhat meets it before evaluating anything
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated at a wall point")

    monkeypatch.setattr(recursion, "evaluate", refuse)
    msg = "^wall point: some entry is a positive integer, volhat undefined$"
    for fn in (volhat, volume_normalization):
        with pytest.raises(ValueError, match=msg):
            fn(_w(1, 1, 1))


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


def _line(genus, base, direction, t):
    return WeightVector(genus, tuple(Fraction(b) + t * Fraction(d) for b, d in zip(base, direction)))


def _wall_free(base, direction, t0, t1):
    """No subset sum that moves along the line is an integer for t in [t0, t1].

    A sum that does not move cuts no chamber, so a segment of a line lying
    inside a wall counts as wall free when it crosses no other wall.
    """
    n = len(base)
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            if sum(Fraction(direction[i]) for i in S) == 0:
                continue
            a, b = (sum(Fraction(base[i]) + t * Fraction(direction[i]) for i in S) for t in (t0, t1))
            if a.denominator == 1 or b.denominator == 1 or a // 1 != b // 1:
                return False
    return True


def _difference(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


DEGREE_SEGMENTS = [  # genus, base, direction, t0, step
    (1, (0, 2), (1, -1), Fraction(1, 7), Fraction(1, 11)),
    (1, (Fraction(2, 5), Fraction(3, 7), Fraction(76, 35)),
     (Fraction(1, 29), Fraction(-1, 31), Fraction(-2, 899)), 0, 1),
    (2, (0, 4), (1, -1), Fraction(1, 9), Fraction(1, 13)),
    (0, (Fraction(1, 5), Fraction(1, 3), Fraction(2, 7), Fraction(124, 105)),
     (Fraction(1, 40), Fraction(-1, 50), Fraction(1, 60), Fraction(-13, 600)), 0, 1),
    # inside the pair-sum wall a1 + a2 = 1
    (0, (Fraction(1, 3), Fraction(2, 3), Fraction(3, 5), Fraction(3, 5), Fraction(4, 5)),
     (Fraction(1, 100), Fraction(-1, 100), Fraction(1, 200), Fraction(-1, 400), Fraction(-1, 400)), 0, 1),
]


@pytest.mark.parametrize("genus, base, direction, t0, step", DEGREE_SEGMENTS)
def test_exact_degree_on_wall_free_segments(genus, base, direction, t0, step):
    # scan interpolates with degree D = 4g - 3 + n under every convention:
    # on a segment crossing no wall the (D+1)-th exact difference vanishes.
    # With the prefactor sign the D-th does not; with the (-1)^edges sign
    # the degree can fall below D (4 instead of 7 at genus 2)
    degree = 4 * genus - 3 + len(base)
    ts = [t0 + j * step for j in range(degree + 2)]
    assert _wall_free(base, direction, ts[0], ts[-1])
    for conv in ALL_CONVENTIONS:
        values = [evaluate(_line(genus, base, direction, t), convention=conv).value for t in ts]
        assert _difference(values, degree + 1) == [0], conv
        if conv.term_sign == "prefactor":
            assert 0 not in _difference(values, degree), conv
        if conv == DEFAULT_CONVENTION and genus == 0 and len(base) == 4:
            oracle = [genus0_oracle(_line(genus, base, direction, t)) for t in ts]
            assert oracle == values
            assert _difference(oracle, degree + 1) == [0] and 0 not in _difference(oracle, degree)


@st.composite
def _wall_free_segments(draw):
    genus, n = draw(st.sampled_from([(0, 4), (0, 5), (1, 2), (1, 3)]))
    total = 2 * genus - 2 + n
    ks = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    base = [Fraction(total * k, sum(ks)) for k in ks]
    direction = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))) for _ in range(n - 1)]
    direction.append(-sum(direction))
    # walk to 1/(D + 2) of the way to the first subset sum that meets an integer
    reach = None
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            s = sum(base[i] for i in S)
            d = sum(direction[i] for i in S)
            assume(s.denominator != 1)
            if d:
                gap = (math.floor(s) + 1 - s) / d if d > 0 else (s - math.floor(s)) / -d
                reach = gap if reach is None else min(reach, gap)
    assume(reach is not None)
    degree = 4 * genus - 3 + n
    return genus, base, direction, reach / (degree + 2)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_wall_free_segments())
def test_degree_bound_on_drawn_segments(segment):
    genus, base, direction, step = segment
    degree = 4 * genus - 3 + len(base)
    ts = [j * step for j in range(degree + 2)]
    assert _wall_free(base, direction, ts[0], ts[-1])
    for conv in ALL_CONVENTIONS:
        values = [evaluate(_line(genus, base, direction, t), convention=conv).value for t in ts]
        assert _difference(values, degree + 1) == [0], conv


def _counting_evaluate(monkeypatch, calls, perturb=None):
    def counting(alpha, *args, **kwargs):
        key = tuple(sorted(alpha.entries))
        calls.append(key)
        fv = evaluate(alpha, *args, **kwargs)
        return fv._replace(value=fv.value + 1) if key == perturb else fv

    monkeypatch.setattr(recursion, "evaluate", counting)


# genus 1, n = 3 at t = (i - 6)/18: a1 + a2 = 1 (with a3 = 2) at t = 4/9 and
# walls at t = 1, 10/9, 4/3; t <= 0 and t >= 16/9 leave the positive cone
G1N3_SLICE = dict(genus=1, n=3, steps=40, base=(0, Fraction(1, 3), Fraction(8, 3)),
                  direction=(1, Fraction(1, 2), Fraction(-3, 2)),
                  t_min=Fraction(-1, 3), t_max=Fraction(35, 18))
# genus 0, n = 5 at t = -1 + i/20: the pair sum a1 + a2 = 1/2 + t meets 1 at
# t = 1/2 and a3 + a4 at t = 9/10 with no entry integral; a1 = a2 = 1 at 3/2
G0N5_SLICE = dict(genus=0, n=5, steps=80,
                  base=(Fraction(1, 4), Fraction(1, 4), Fraction(4, 5), Fraction(4, 5), Fraction(9, 10)),
                  direction=(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)),
                  t_min=Fraction(-1), t_max=Fraction(61, 20))


def _assert_rows_match_direct(slice_, rows, convention):
    for r in rows:
        if r.flag == "invalid":
            assert r.value is None
            continue
        w = WeightVector(slice_["genus"], r.alpha)
        assert r.value == evaluate(w, convention=convention).value, (convention, r.t)
        assert r.flag == ("wall" if has_integer_entry(w) else "")
        assert r.volhat == (None if r.flag else volume_normalization(w) * float(r.value))


def _assert_chamber_budget(slice_, rows, calls):
    """At most D + 2 evaluations per chamber, and fewer than one per row.

    The chambers are grouped independently of scan: a row stands alone on
    a wall, and neighbours share a chamber when no wall lies between them.
    """
    base, direction = slice_["base"], slice_["direction"]
    on_wall, chambers, prev = 0, [], None
    for r in rows:
        if r.flag == "invalid" or not _wall_free(base, direction, r.t, r.t):
            on_wall += r.flag != "invalid"
            prev = None
            continue
        if prev is None or not _wall_free(base, direction, prev.t, r.t):
            chambers.append(0)
        chambers[-1] += 1
        prev = r
    degree = 4 * slice_["genus"] - 3 + slice_["n"]
    assert len(calls) <= on_wall + sum(min(m, degree + 2) for m in chambers) < on_wall + sum(chambers)


@pytest.mark.parametrize("slice_, pair_wall", [(G1N3_SLICE, Fraction(4, 9)), (G0N5_SLICE, Fraction(1, 2))])
def test_scan_interpolation_matches_direct(monkeypatch, slice_, pair_wall):
    for convention in (DEFAULT_CONVENTION, PRINTED_CONVENTION):
        calls = []
        _counting_evaluate(monkeypatch, calls)
        rows = scan(**slice_, convention=convention)
        flags = {r.flag for r in rows}
        assert flags == {"", "wall", "invalid"}
        _assert_chamber_budget(slice_, rows, calls)
        wall_row = next(r for r in rows if r.t == pair_wall)
        assert tuple(sorted(wall_row.alpha)) in calls  # evaluated directly
        _assert_rows_match_direct(slice_, rows, convention)


# lines lying inside a wall, interpolated between the walls they cross:
# a1 + a2 = 1 at genus 0, n = 5 (rows with t <= -1/3 leave the positive
# cone), and a3 = 2 at genus 1, n = 3, where every row is a wall row and
# no other wall meets the open segment
IN_WALL_SLICES = [
    dict(genus=0, n=5, steps=40,
         base=(Fraction(1, 3), Fraction(2, 3), Fraction(3, 5), Fraction(3, 5), Fraction(4, 5)),
         direction=(1, -1, Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 4)),
         t_min=Fraction(-2, 5), t_max=Fraction(3, 5)),
    dict(genus=1, n=3, steps=40, base=(0, 1, 2), direction=(1, -1, 0), t_min=0, t_max=1),
]


@pytest.mark.parametrize("slice_", IN_WALL_SLICES)
def test_scan_line_inside_wall(monkeypatch, slice_):
    for convention in ALL_CONVENTIONS:
        calls = []
        _counting_evaluate(monkeypatch, calls)
        rows = scan(**slice_, convention=convention)
        _assert_chamber_budget(slice_, rows, calls)
        _assert_rows_match_direct(slice_, rows, convention)


def test_scan_default_genus2_evaluations(monkeypatch):
    # walls t = 1, 2, 3 cut the 600 rows into 4 chambers of 150, and each
    # chamber needs at most D + 2 = 9 evaluations
    calls = []
    _counting_evaluate(monkeypatch, calls)
    rows = scan(2, steps=600)
    assert len(calls) <= 4 * (4 * 2 - 3 + 2 + 2)
    for r in rows[::37]:
        assert r.value == evaluate(WeightVector(2, r.alpha)).value


def test_scan_printed_genus2_evaluations(monkeypatch):
    # another convention shares no mirrored rows, but takes the same path:
    # 4 chambers of 150 rows at D + 2 = 9 evaluations each, not 600
    calls = []
    _counting_evaluate(monkeypatch, calls)
    rows = scan(2, steps=600, convention=PRINTED_CONVENTION)
    assert len(calls) <= 4 * (4 * 2 - 3 + 2 + 2)
    for r in rows[::37]:
        assert r.value == evaluate(WeightVector(2, r.alpha), convention=PRINTED_CONVENTION).value


def test_scan_check_failure_falls_back(monkeypatch):
    # the chamber 4/9 < t < 1 of the genus-1, n = 3 slice has 9 rows and is
    # interpolated from D + 2 = 6 evaluations; a wrong value at any of them
    # fails the check, and then every row of the chamber is evaluated
    for convention in (DEFAULT_CONVENTION, PRINTED_CONVENTION):
        monkeypatch.undo()  # the reference scan runs the real evaluate
        reference = scan(**G1N3_SLICE, convention=convention)
        chamber = [k for k, r in enumerate(reference) if Fraction(4, 9) < r.t < 1]
        keys = {k: tuple(sorted(reference[k].alpha)) for k in chamber}
        calls = []
        _counting_evaluate(monkeypatch, calls)
        scan(**G1N3_SLICE, convention=convention)
        evaluated = [key for key in calls if key in keys.values()]
        assert len(evaluated) == 6 < len(chamber)
        for target in evaluated:
            calls.clear()
            _counting_evaluate(monkeypatch, calls, perturb=target)
            rows = scan(**G1N3_SLICE, convention=convention)
            for k, (r, ref) in enumerate(zip(rows, reference)):
                if k in keys:
                    assert keys[k] in calls
                    assert r.value == ref.value + (keys[k] == target)
                else:
                    assert r == ref


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
