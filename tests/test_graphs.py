"""Tests for star graph enumeration, twist domains, and tree flattening."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from flatvol import graphs
from flatvol.exact import var_name
from flatvol.graphs import (
    I0_POLICIES,
    FlattenState,
    OuterVertex,
    StarGraph,
    WeightVector,
    domain_of,
    enumerate_k_twists,
    enumerate_star_graphs,
    flatten,
    twist_multiplicity,
)
from flatvol.kernels import ALL_CONVENTIONS, DEFAULT_CONVENTION, kernel_A
from flatvol.polytopes import integrate
from flatvol.recursion import evaluate


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


@pytest.mark.parametrize(
    "genus0, legs0, outer, i0, message",
    [
        (0, (1, 2), (OuterVertex(0, 1, (3,)),), 3, "i0 must sit on the central vertex"),
        (-1, (1, 2, 3), (), 1, "bad vertex data"),
        (0, (1, 2), (OuterVertex(-1, 1, (3, 4)),), 1, "bad vertex data"),
        (0, (1, 2), (OuterVertex(0, 0, (3, 4, 5)),), 1, "bad vertex data"),
        (0, (1,), (), 1, "unstable vertex"),
        (0, (1, 2), (OuterVertex(0, 1, ()),), 1, "unstable vertex"),
    ],
)
def test_star_graph_refusals_name_their_reason(genus0, legs0, outer, i0, message):
    with pytest.raises(ValueError, match=message):
        StarGraph(genus0, legs0, outer, i0)


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
    trees = flatten(graphs[0], FlattenState(w))
    assert len(trees) == 1
    t = trees[0]
    assert t.domain.blocks == ()
    integrand = math.prod(t.factors)
    assert integrand.vars == ()
    assert integrand.constant_value() == 1


def test_flatten_two_edge_block():
    # central {2}, outer (0,2) carrying {1}: block beta1+beta2 = 1 - alpha_1,
    # integrand picks up beta1*beta2 / 2!
    w = WeightVector(1, (Fraction(1, 2), Fraction(3, 2)))
    graphs = enumerate_star_graphs(1, (1, 2), 2)
    gph = next(
        g for g in graphs if g.outer and g.outer[0].edges == 2 and g.outer[0].legs == (1,)
    )
    trees = flatten(gph, FlattenState(w))
    assert len(trees) == 1
    t = trees[0]
    assert len(t.domain.blocks) == 1
    blk = t.domain.blocks[0]
    assert len(blk.vars) == 2
    assert blk.level.constant_value() == Fraction(1, 2)
    b1, b2 = blk.vars
    integrand = math.prod(t.factors)
    assert max(e[integrand.vars.index(b1)] for e in integrand.terms) == 1
    assert max(e[integrand.vars.index(b2)] for e in integrand.terms) == 1
    pt = {b1: Fraction(1, 3), b2: Fraction(1, 6)}
    assert integrand.evaluate(pt) == Fraction(1, 2) * Fraction(1, 3) * Fraction(1, 6)


def test_flatten_prunes_empty_domains():
    # the pair {2,3} level goes negative, the whole graph contributes no tree
    w = WeightVector(0, (Fraction(1, 5), Fraction(3, 5), Fraction(3, 5), Fraction(3, 5)))
    graphs = enumerate_star_graphs(0, (1, 2, 3, 4), 1)
    gph = next(g for g in graphs if g.outer and g.outer[0].legs == (2, 3))
    assert flatten(gph, FlattenState(w)) == []


def test_flatten_unknown_policy():
    w = WeightVector(0, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(ValueError, match="unknown i0 policy"):
        FlattenState(w, i0_policy="nope")


def test_flatten_refuses_a_graph_of_another_weight_vector():
    # a graph of another genus, then one with another marking set
    state = FlattenState(_weights(1, "1/2,3/2"))
    for gph in (enumerate_star_graphs(2, (1, 2), 1)[0], enumerate_star_graphs(1, (1, 3), 1)[0]):
        with pytest.raises(ValueError, match="does not match the weight vector"):
            flatten(gph, state)


def test_flatten_depth_two_has_closed_root_domain():
    # children's block levels may reference parent edge variables, but the
    # assembled root cascade must introduce every variable it uses, which
    # CascadePolytope checks on construction
    w = WeightVector(0, (Fraction(17, 10), Fraction(3, 10), Fraction(1, 4),
                         Fraction(1, 4), Fraction(1, 2)))
    nested = False
    for gph in enumerate_star_graphs(0, tuple(range(1, 6)), 3):
        for t in flatten(gph, FlattenState(w, i0_policy="smallest_marking")):
            for blk in t.domain.blocks:
                # twist variables are engine ids, allocated without a stored name
                assert all(var_name(v) == f"x{v}" for v in blk.vars)
                nested = nested or bool(blk.level.vars)
    assert nested


def _tree_counts(w, convention=DEFAULT_CONVENTION):
    gphs = enumerate_star_graphs(w.genus, w.labels(), 1)
    return tuple(
        sum(len(flatten(gph, FlattenState(w, convention, policy))) for gph in gphs)
        for policy in (*I0_POLICIES, None)
    )


def test_i0_policy_picks_child_root():
    # each policy roots child graphs at a different marking, the smallest
    # fixed leg, the largest, or the first new edge, and so builds its own
    # tree set; the last count is flatten's default, edge_first under the
    # default convention and smallest_marking under the others
    assert _tree_counts(_weights(1, "1/2,2/3,5/6,4/3,7/6,3/2")) == (2805, 4031, 638, 638)
    w = _weights(1, "5/4,5/4,1/2")
    for conv in ALL_CONVENTIONS:
        want = (10, 8, 7, 7) if conv == DEFAULT_CONVENTION else (13, 11, 10, 13)
        assert _tree_counts(w, conv) == want, conv.key()


def _weights(genus, text):
    return WeightVector(genus, tuple(Fraction(x) for x in text.split(",")))


def _depth(tree):
    """Nesting depth of a tree read off its cascade: 1 for a lone root node.

    A node's blocks have levels in the edge variables of its parent's
    blocks, which come earlier, so the depth is one more than the longest
    chain of blocks that each use a variable of the one before.
    """
    owner = {v: i for i, blk in enumerate(tree.domain.blocks) for v in blk.vars}
    chain = []
    for blk in tree.domain.blocks:
        chain.append(1 + max((chain[owner[v]] for v in blk.level.vars), default=0))
    return 1 + max(chain, default=0)


def test_flatten_expands_each_vertex_type_once(monkeypatch):
    # one expansion per child vertex type and root graph, and no kernel for
    # a graph its levels prune: expanding every occurrence anew, each kernel
    # before the pruning test, makes 215 kernel calls here
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return kernel_A(*args, **kwargs)

    monkeypatch.setattr(graphs, "kernel_A", counting)
    w = _weights(0, "1/2,2/3,5/6,4/5,7/10,1/2")
    trees = [
        t
        for gph in enumerate_star_graphs(0, w.labels(), 1)
        for t in flatten(gph, FlattenState(w, i0_policy="smallest_marking"))
    ]
    assert len(trees) == 71
    assert len(calls) == 109


def test_evaluate_expands_each_vertex_type_once(monkeypatch):
    # evaluate shares one flatten state across its root graphs, so each
    # lower vertex type is expanded once per evaluation: a state made anew
    # per root graph makes 109 kernel calls here, and 21 under edge_first
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return kernel_A(*args, **kwargs)

    monkeypatch.setattr(graphs, "kernel_A", counting)
    w = _weights(0, "1/2,2/3,5/6,4/5,7/10,1/2")
    counts = []
    for policy in ("smallest_marking", None):
        calls.clear()
        evaluate(w, i0_policy=policy)
        counts.append(len(calls))
    assert counts == [70, 17]


def _tree_values(w, state_for):
    return [
        [(len(t.factors), len(t.domain.blocks), integrate(t.factors, t.domain))
         for t in flatten(gph, state_for())]
        for gph in enumerate_star_graphs(w.genus, w.labels(), 1)
    ]


def test_filled_flatten_state_gives_fresh_trees():
    # one state across the root graphs reuses the vertex types of earlier
    # graphs, and every graph gets the trees a fresh state gives it, also
    # once the state holds every vertex type
    w = _weights(0, "1/2,2/3,5/6,4/5,7/10,1/2")
    state = FlattenState(w, i0_policy="smallest_marking")
    filled = _tree_values(w, lambda: state)
    assert state.memo
    fresh = _tree_values(w, lambda: FlattenState(w, i0_policy="smallest_marking"))
    assert _tree_values(w, lambda: state) == filled == fresh


# sha256 prefixes of the "label=value" list of evaluate(...).terms, per
# point and convention, in I0_POLICIES order.  They were recorded as each
# root graph's sum of tree terms from a flattening without the empty-level
# prune of blocks with inherited legs and without the zero-sum skip, so
# the prunings leave every sum as it was.  Each point repeats a weight on
# two markings other than i0, so a subtree reused under the wrong labels
# shows; under the default convention the three policies agree.
TERM_DIGESTS = {
    (1, "1/2,5/4,5/4"): {
        "printed:printed": ("0750fcd5713152c3", "0750fcd5713152c3", "0cd49cd31aad1f23"),
        "printed:prefactor": ("a7b0e38ad412839b", "a7b0e38ad412839b", "b56cdb993f5bf0d8"),
        "shifted:printed": ("222d5998ad4fbf35", "222d5998ad4fbf35", "00e9098aa721bf0f"),
        "shifted:prefactor": ("e532ea1800c5ba4f", "e532ea1800c5ba4f", "e532ea1800c5ba4f"),
    },
    (0, "1/2,2/3,2/3,4/5,7/10,2/3"): {
        "printed:printed": ("1367a217c84db823", "094304933ddd142d", "05a93b7e74d14455"),
        "printed:prefactor": ("5a834311db811169", "5a834311db811169", "5a834311db811169"),
        "shifted:printed": ("1367a217c84db823", "094304933ddd142d", "05a93b7e74d14455"),
        "shifted:prefactor": ("5a834311db811169", "5a834311db811169", "5a834311db811169"),
    },
    (2, "1/3,11/3"): {
        "printed:printed": ("90154de1228a4fc3", "90154de1228a4fc3", "90154de1228a4fc3"),
        "printed:prefactor": ("9563daaaae8a0023", "9563daaaae8a0023", "9563daaaae8a0023"),
        "shifted:printed": ("436954755bb3a33b", "436954755bb3a33b", "436954755bb3a33b"),
        "shifted:prefactor": ("1c5c7631f4093c91", "1c5c7631f4093c91", "1c5c7631f4093c91"),
    },
}


@pytest.mark.parametrize("genus, entries", list(TERM_DIGESTS))
def test_terms_pinned_under_all_conventions_and_policies(genus, entries):
    w = _weights(genus, entries)
    for conv in ALL_CONVENTIONS:
        got = []
        for policy in I0_POLICIES:
            terms = evaluate(w, convention=conv, i0_policy=policy).terms
            text = ";".join(f"{label}={value}" for label, value in terms)
            got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        assert tuple(got) == TERM_DIGESTS[genus, entries][conv.key()], conv.key()


@pytest.mark.parametrize(
    "genus, entries",
    [
        (3, "4/7,53/13,214/91"),
        (1, "1/2,2/3,5/6,4/3,7/6,3/2"),
        (0, "1/2,2/3,5/6,4/5,7/10,1/2,5/6,7/6"),
    ],
)
def test_term_labels_are_distinct(genus, entries):
    # evaluate labels each root graph's term by its encoding at the weights
    w = _weights(genus, entries)
    labels = [gph.encode(w.weight_map()) for gph in enumerate_star_graphs(genus, w.labels(), 1)]
    assert len(set(labels)) == len(labels)


def test_reused_subtrees_stay_inside_their_domain():
    # a renamed subtree must carry this occurrence's edge ids: every
    # integrand variable is a twist variable of the tree's own cascade.
    # Edge-rooted children at the genus-0 point leave every grandchild
    # level constant, so the genus-1 point supplies the nested levels.
    for policy in I0_POLICIES:
        depths = []
        for w in (_weights(0, "1/2,2/3,5/6,4/5,7/10,1/2"), _weights(1, "1/3,1/2,5/4,23/12")):
            for gph in enumerate_star_graphs(w.genus, w.labels(), 1):
                for t in flatten(gph, FlattenState(w, i0_policy=policy)):
                    assert {v for f in t.factors for v in f.vars} <= set(t.domain.variables)
                    depths.append(_depth(t))
        assert max(depths) >= 3, policy
