"""Tests for star graph enumeration, twist domains, and tree flattening."""

import random
from fractions import Fraction

import pytest

from flatvol.exact import var_name
from flatvol.graphs import (
    OuterVertex,
    StarGraph,
    WeightVector,
    domain_of,
    enumerate_k_twists,
    enumerate_star_graphs,
    flatten,
    twist_multiplicity,
)


def test_weight_vector_validation():
    w = WeightVector(0, (Fraction(1, 2),) * 4)
    assert w.n == 4
    assert w.labels() == (1, 2, 3, 4)

    with pytest.raises(ValueError):
        WeightVector(0, (Fraction(-1, 2), Fraction(3, 2), Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        WeightVector(0, (Fraction(1), Fraction(1)))  # unstable
    with pytest.raises(ValueError):
        WeightVector(0, (Fraction(1, 2),) * 3)  # sum 3/2, needs 1
    with pytest.raises(ValueError):
        WeightVector(-1, (Fraction(1),) * 3)


def test_enumeration_counts():
    counts = {
        (0, 4): 4,
        (0, 5): 14,
        (1, 1): 1,
        (1, 2): 3,
        (1, 3): 9,
        (2, 1): 5,
        (2, 2): 12,
    }
    for (g, n), want in counts.items():
        graphs = enumerate_star_graphs(g, tuple(range(1, n + 1)), 1)
        assert len(graphs) == want, (g, n)
        assert len({gph.encode() for gph in graphs}) == want


def test_enumeration_structure_04():
    graphs = enumerate_star_graphs(0, (1, 2, 3, 4), 1)
    trivial = [gph for gph in graphs if not gph.outer]
    assert len(trivial) == 1
    pairs = set()
    for gph in graphs:
        if not gph.outer:
            continue
        assert len(gph.outer) == 1
        ov = gph.outer[0]
        assert ov.genus == 0 and ov.edges == 1
        pairs.add(ov.legs)
    assert pairs == {(2, 3), (2, 4), (3, 4)}


def test_enumeration_keeps_i0_central():
    for g, n in ((0, 4), (1, 2), (1, 3)):
        for i0 in range(1, n + 1):
            for gph in enumerate_star_graphs(g, tuple(range(1, n + 1)), i0):
                assert i0 in gph.legs0


def test_euler_additivity():
    # vertex Euler weights partition the total 2g-2+n on every graph
    for g, n in ((0, 5), (1, 3), (2, 2)):
        for gph in enumerate_star_graphs(g, tuple(range(1, n + 1)), 1):
            total = 2 * gph.genus0 - 2 + len(gph.legs0) + gph.e0
            total += sum(ov.euler for ov in gph.outer)
            assert total == 2 * g - 2 + n
            assert gph.genus == g
            assert gph.h1 == gph.e0 - gph.ell >= 0


def test_enumeration_relabel_invariance():
    base = enumerate_star_graphs(1, (1, 2, 3), 1)
    # swap markings 2 and 3; i0 = 1 is fixed
    swapped = enumerate_star_graphs(1, (1, 3, 2), 1)
    enc = lambda gs: sorted(g.encode() for g in gs)
    assert enc(base) == enc(swapped)


def test_big_genus_membership():
    graphs = enumerate_star_graphs(7, (1, 2, 3), 1)
    target = StarGraph(
        genus0=1,
        legs0=(1,),
        outer=(OuterVertex(2, 1, (3,)), OuterVertex(3, 2, (2,))),
        i0=1,
    )
    assert target.genus == 7
    assert target in graphs


def test_big_genus_domain_levels():
    target = StarGraph(
        genus0=1,
        legs0=(1,),
        outer=(OuterVertex(2, 1, (3,)), OuterVertex(3, 2, (2,))),
        i0=1,
    )
    w = WeightVector(7, (Fraction(29, 2), Fraction(1, 4), Fraction(1, 4)))
    info = domain_of(target, w.weight_map())
    # outer vertices sorted: (2,1,{3}) then (3,2,{2})
    assert info.levels == (Fraction(15, 4), Fraction(27, 4))
    assert not info.empty

    # empty exactly when the second entry exceeds 7 or the third exceeds 4
    w2 = WeightVector(7, (Fraction(13, 2), Fraction(15, 2), Fraction(1)))
    assert domain_of(target, w2.weight_map()).empty
    w3 = WeightVector(7, (Fraction(17, 2), Fraction(2), Fraction(9, 2)))
    assert domain_of(target, w3.weight_map()).empty


def test_aut_order_on_repeated_outer():
    graphs = enumerate_star_graphs(2, (1,), 1)
    twins = [
        gph
        for gph in graphs
        if len(gph.outer) == 2 and all(ov == OuterVertex(1, 1, ()) for ov in gph.outer)
    ]
    assert len(twins) == 1
    gph = twins[0]
    # two identical outer vertices: ordered-count weight and |Aut| agree
    assert gph.sym_factor == 2
    assert gph.aut_order == 2


def test_k_twists_single_point():
    # two edges to one outer vertex, level 1 - alpha_1 = 1/2, k = 4
    w = WeightVector(1, (Fraction(1, 2), Fraction(3, 2)))
    graphs = enumerate_star_graphs(1, (1, 2), 2)
    gph = next(
        g for g in graphs if g.outer and g.outer[0].edges == 2 and g.outer[0].legs == (1,)
    )
    twists = enumerate_k_twists(gph, w.weight_map(), 4)
    assert twists == [((Fraction(1, 4), Fraction(1, 4)),)]
    assert twist_multiplicity(twists[0]) == Fraction(1, 16)


def test_k_twists_interval_count():
    # one block of 2 edges at level c = 1/2: k*c - 1 interior points when k*c is integral
    w = WeightVector(1, (Fraction(3, 2), Fraction(1, 2)))
    graphs = enumerate_star_graphs(1, (1, 2), 1)
    gph = next(
        g for g in graphs if g.outer and g.outer[0].edges == 2 and g.outer[0].legs == (2,)
    )
    for k in (10, 20, 40):
        twists = enumerate_k_twists(gph, w.weight_map(), k)
        assert len(twists) == k // 2 - 1
        for (pair,) in twists:
            assert sum(pair) == Fraction(1, 2)
            assert all(b > 0 for b in pair)


def test_k_twists_empty_domain():
    # level 1 - 7/12 - 7/12 < 0: lattice search at k = 12 finds nothing
    w = WeightVector(0, (Fraction(1, 6), Fraction(7, 12), Fraction(7, 12), Fraction(2, 3)))
    graphs = enumerate_star_graphs(0, (1, 2, 3, 4), 1)
    gph = next(g for g in graphs if g.outer and g.outer[0].legs == (2, 3))
    assert domain_of(gph, w.weight_map()).empty
    assert enumerate_k_twists(gph, w.weight_map(), 12) == []


def test_flatten_base_leaf():
    w = WeightVector(0, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    graphs = enumerate_star_graphs(0, (1, 2, 3), 1)
    assert len(graphs) == 1
    trees = flatten(graphs[0], w)
    assert len(trees) == 1
    t = trees[0]
    assert t.domain.blocks == ()
    assert t.integrand.is_constant()
    assert t.integrand.constant_value() == 1


def test_flatten_two_edge_block():
    # central {2}, outer (0,2) carrying {1}: block beta1+beta2 = 1 - alpha_1,
    # integrand picks up beta1*beta2 / 2!
    w = WeightVector(1, (Fraction(1, 2), Fraction(3, 2)))
    graphs = enumerate_star_graphs(1, (1, 2), 2)
    gph = next(
        g for g in graphs if g.outer and g.outer[0].edges == 2 and g.outer[0].legs == (1,)
    )
    trees = flatten(gph, w)
    assert len(trees) == 1
    t = trees[0]
    assert len(t.domain.blocks) == 1
    blk = t.domain.blocks[0]
    assert len(blk.vars) == 2
    assert blk.level.constant_value() == Fraction(1, 2)
    b1, b2 = blk.vars
    assert t.integrand.degree_in(b1) == 1
    assert t.integrand.degree_in(b2) == 1
    pt = {b1: Fraction(1, 3), b2: Fraction(1, 6)}
    assert t.integrand.evaluate(pt) == Fraction(1, 2) * Fraction(1, 3) * Fraction(1, 6)


def test_flatten_prunes_empty_domains():
    # the pair {2,3} level goes negative, the whole graph contributes no tree
    w = WeightVector(0, (Fraction(1, 5), Fraction(3, 5), Fraction(3, 5), Fraction(3, 5)))
    graphs = enumerate_star_graphs(0, (1, 2, 3, 4), 1)
    gph = next(g for g in graphs if g.outer and g.outer[0].legs == (2, 3))
    assert flatten(gph, w) == []


def test_flatten_unknown_policy():
    w = WeightVector(0, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    graphs = enumerate_star_graphs(0, (1, 2, 3), 1)
    with pytest.raises(ValueError):
        flatten(graphs[0], w, i0_policy="nope")


def test_flatten_depth_two_has_closed_root_domain():
    # children's block levels may reference parent edge variables, but the
    # assembled root cascade must introduce every variable it uses
    w = WeightVector(0, (Fraction(17, 10), Fraction(3, 10), Fraction(1, 4),
                         Fraction(1, 4), Fraction(1, 2)))
    for gph in enumerate_star_graphs(0, tuple(range(1, 6)), 3):
        for t in flatten(gph, w):
            assert t.domain.external_vars == ()
            for blk in t.domain.blocks:
                # twist variables are engine ids, allocated without a stored name
                assert all(var_name(v) == f"x{v}" for v in blk.vars)
