"""Star graphs, twist domains, and the recursive flattening to polytopes.

A star graph for (g, markings, i0) has a central vertex of genus g0
carrying the distinguished marking i0 plus some other markings, and ell
outer vertices, the j-th of genus g_j joined to the center by e_j >= 1
edges and carrying the marking set legs_j.  The genus condition is
g = e0 - ell + sum_j g_j with e0 the total edge count, and every vertex
must be stable (2g - 2 + markings + edges > 0).

Outer descriptors are kept canonically sorted, so enumeration is free of
duplicates; a graph with r equal outer vertices stands for ell!/r!
ordered labelings and its terms carry the weight 1/(r! * prod e_j!),
which equals the reciprocal automorphism count 1/|Aut|.

Flattening expands every outer vertex through its own star graphs down
to kernel leaves, producing one StarTree per combination: one factor
polynomial per tree node, in the edge variables, and a cascade of twist
blocks, with block level 2g_j - 2 + n_j + e_j - sum of leg weights.  The
factors are never multiplied here; trees that share a node share its
factor object, and integrate multiplies them on a full-dimensional domain.
A FlattenState is built from one weight vector, convention and
child-root policy, and evaluate passes one to every root graph; each
vertex type is expanded once per state, and a later vertex of the same
type gets that expansion with its variables renamed.
A graph is dropped in one place, before its kernel is expanded: when a
block's level leaves no twist or, under the default convention, when a
one-edge outer vertex with no inherited leg has an integer level, which
forces the edge onto a wall where v = 0.  The trees are internal, and
evaluate reports one sum per root graph.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .exact import MultiPoly, fresh_var, var_name
from .kernels import ConventionFlags, DEFAULT_CONVENTION, kernel_A
from .polytopes import Block, CascadePolytope

Label = Union[int, tuple]  # int marking, or ("e", var_id) edge slot


def label_key(label: Label):
    if isinstance(label, int):
        return (0, label)
    return (1, label[1])


def label_str(label: Label) -> str:
    if isinstance(label, int):
        return str(label)
    return var_name(label[1])


class _WeightFields(NamedTuple):
    genus: int
    entries: tuple[Fraction, ...]


class WeightVector(_WeightFields):
    """Cone angles 2*pi*alpha_i; entries must sum to 2g-2+n exactly."""

    __slots__ = ()

    def __new__(cls, genus: int, entries: Iterable[Fraction]) -> WeightVector:
        self = super().__new__(cls, genus, tuple(Fraction(e) for e in entries))
        if self.genus < 0:
            raise ValueError("genus must be >= 0")
        n = len(self.entries)
        if n < 1:
            raise ValueError("need at least one entry")
        if 2 * self.genus - 2 + n <= 0:
            raise ValueError(f"(g, n) = ({self.genus}, {n}) is unstable")
        if any(e <= 0 for e in self.entries):
            raise ValueError("weight entries must be positive")
        total = sum(self.entries, Fraction(0))
        if total != 2 * self.genus - 2 + n:
            raise ValueError(
                f"entries sum to {total}, expected 2g-2+n = {2 * self.genus - 2 + n}"
            )
        return self

    @property
    def n(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def weight_map(self) -> dict[int, Fraction]:
        return {i + 1: e for i, e in enumerate(self.entries)}


class OuterVertex(NamedTuple):
    genus: int
    edges: int
    legs: tuple[Label, ...]

    @property
    def euler(self) -> int:
        """2g - 2 + n + e, the stability weight and the block level constant."""
        return 2 * self.genus - 2 + len(self.legs) + self.edges


class _StarFields(NamedTuple):
    genus0: int
    legs0: tuple[Label, ...]
    outer: tuple[OuterVertex, ...]
    i0: Label


class StarGraph(_StarFields):
    __slots__ = ()

    def __new__(
        cls, genus0: int, legs0: tuple[Label, ...], outer: tuple[OuterVertex, ...], i0: Label
    ) -> StarGraph:
        self = super().__new__(cls, genus0, legs0, outer, i0)
        if self.i0 not in self.legs0:
            raise ValueError("i0 must sit on the central vertex")
        if self.genus0 < 0 or any(ov.genus < 0 or ov.edges < 1 for ov in self.outer):
            raise ValueError("bad vertex data")
        if self.euler0 <= 0 or any(ov.euler <= 0 for ov in self.outer):
            raise ValueError("unstable vertex")
        return self

    @property
    def ell(self) -> int:
        return len(self.outer)

    @property
    def e0(self) -> int:
        return sum(ov.edges for ov in self.outer)

    @property
    def n0(self) -> int:
        return len(self.legs0)

    @property
    def euler0(self) -> int:
        return 2 * self.genus0 - 2 + self.n0 + self.e0

    @property
    def genus(self) -> int:
        return self.e0 - self.ell + self.genus0 + sum(ov.genus for ov in self.outer)

    @property
    def h1(self) -> int:
        return self.e0 - self.ell

    @property
    def j0(self) -> int:
        """Power of the central prefactor, 2g0 - 3 + n0 + e0."""
        return 2 * self.genus0 - 3 + self.n0 + self.e0

    @property
    def markings(self) -> tuple[Label, ...]:
        out = list(self.legs0)
        for ov in self.outer:
            out.extend(ov.legs)
        return tuple(sorted(out, key=label_key))

    @property
    def sym_factor(self) -> int:
        """prod r! over groups of equal outer descriptors."""
        out = 1
        for _, grp in itertools.groupby(self.outer):
            out *= math.factorial(sum(1 for _ in grp))
        return out

    @property
    def aut_order(self) -> int:
        out = self.sym_factor
        for ov in self.outer:
            out *= math.factorial(ov.edges)
        return out

    def encode(self, weights: Mapping[Label, Fraction] | None = None) -> str:
        def legs(ls: Iterable[Label]) -> str:
            return ",".join(label_str(l) for l in ls)

        head = f"{self.genus0}[{legs(self.legs0)}]"
        if not self.outer:
            return head
        levels = domain_of(self, weights).levels if weights is not None else None
        bits = []
        for j, ov in enumerate(self.outer):
            s = f"({ov.genus},{ov.edges})[{legs(ov.legs)}]"
            if levels is not None:
                s += f" c={levels[j]}"
            else:
                s += f" c={ov.euler}" + "".join(f"-a({label_str(l)})" for l in ov.legs)
            bits.append(s)
        return head + " -- " + " ".join(bits)


# -- enumeration ------------------------------------------------------------

# Shapes are graphs over marking positions 0..n-1; the cache key is
# (g, n, i0 position) and actual labels are substituted afterwards.
Shape = tuple[int, tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...]]


def _stable(g: int, slots: int) -> bool:
    return 2 * g - 2 + slots > 0


def _legless_multisets(budget: int, least: tuple[int, int] = (0, 1)):
    """Non-decreasing tuples of stable legless (g, e) pairs, each >= least, cost g+e-1 <= budget."""
    yield ()
    for g in range(budget + 1):
        for e in range(1, budget + 2 - g):
            if (g, e) >= least and _stable(g, e):
                for rest in _legless_multisets(budget - (g + e - 1), (g, e)):
                    yield ((g, e),) + rest


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield ((first,),) + sub
        for i, part in enumerate(sub):
            yield sub[:i] + ((first,) + part,) + sub[i + 1 :]


@lru_cache(maxsize=None)
def _enumerate_shapes(g: int, n: int, i0pos: int) -> tuple[Shape, ...]:
    if not _stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is unstable")
    rest = tuple(p for p in range(n) if p != i0pos)
    shapes: set[Shape] = set()
    for central_extra in _subsets(rest):
        legs0 = tuple(sorted((i0pos,) + central_extra))
        moved = tuple(p for p in rest if p not in central_extra)
        for parts in _set_partitions(moved):
            # (g, e) options per legged part, cost g+e-1, total cost <= g
            choice_lists = []
            for part in parts:
                opts = []
                for gj in range(0, g + 1):
                    for ej in range(1, g + 2):
                        if gj + ej - 1 <= g and _stable(gj, len(part) + ej):
                            opts.append((gj, ej))
                choice_lists.append(opts)
            for choices in itertools.product(*choice_lists):
                used = sum(gj + ej - 1 for gj, ej in choices)
                if used > g:
                    continue
                for legless in _legless_multisets(g - used):
                    outer = [
                        (gj, ej, tuple(sorted(part)))
                        for (gj, ej), part in zip(choices, parts)
                    ] + [(gj, ej, ()) for gj, ej in legless]
                    ell = len(outer)
                    e0 = sum(o[1] for o in outer)
                    g0 = g - e0 + ell - sum(o[0] for o in outer)
                    if g0 < 0:
                        continue
                    if not _stable(g0, len(legs0) + e0):
                        continue
                    shapes.add((g0, legs0, tuple(sorted(outer))))
    return tuple(sorted(shapes))


def _subsets(items: tuple[int, ...]):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def enumerate_star_graphs(
    genus: int, markings: Sequence[Label], i0: Label
) -> tuple[StarGraph, ...]:
    """All star graphs for the given genus and marking labels, i0 central.

    Canonical outer ordering, duplicate free, deterministic order.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    ms = tuple(sorted(markings, key=label_key))
    if len(set(ms)) != len(ms):
        raise ValueError("marking labels must be distinct")
    if i0 not in ms:
        raise ValueError("i0 must be one of the markings")
    shapes = _enumerate_shapes(genus, len(ms), ms.index(i0))
    out = []
    for g0, legs0, outer in shapes:
        out.append(
            StarGraph(
                g0,
                tuple(ms[p] for p in legs0),
                tuple(
                    OuterVertex(gj, ej, tuple(ms[p] for p in part))
                    for gj, ej, part in outer
                ),
                i0,
            )
        )
    return tuple(out)


# -- twist domains -----------------------------------------------------------


class DomainInfo(NamedTuple):
    """Block levels of the twist domain at a numeric weight vector."""

    levels: tuple[Fraction, ...]

    @property
    def empty(self) -> bool:
        return any(c <= 0 for c in self.levels)


def domain_of(graph: StarGraph, weights: Mapping[Label, Fraction]) -> DomainInfo:
    """Per-outer-vertex levels c_j = 2g_j-2+n_j+e_j - sum of leg weights."""
    return DomainInfo(
        tuple(ov.euler - sum(weights[l] for l in ov.legs) for ov in graph.outer)
    )


def enumerate_k_twists(
    graph: StarGraph, weights: Mapping[Label, Fraction], k: int
) -> list[tuple[tuple[Fraction, ...], ...]]:
    """All twist assignments with every beta a positive multiple of 1/k.

    Block j needs k*c_j to be an integer >= e_j, otherwise no twists exist.
    Returns one tuple of per-edge values per outer vertex.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    info = domain_of(graph, weights)
    per_block: list[list[tuple[Fraction, ...]]] = []
    for ov, c in zip(graph.outer, info.levels):
        kc = k * c
        if kc.denominator != 1 or kc < ov.edges:
            return []
        total = int(kc)
        combos = []
        for cuts in itertools.combinations(range(1, total), ov.edges - 1):
            bounds = (0,) + cuts + (total,)
            combos.append(
                tuple(Fraction(bounds[i + 1] - bounds[i], k) for i in range(ov.edges))
            )
        per_block.append(combos)
    return [tuple(choice) for choice in itertools.product(*per_block)]


def twist_multiplicity(twist: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    out = Fraction(1)
    for block in twist:
        for b in block:
            out *= b
    return out


# -- flattening --------------------------------------------------------------

I0_POLICIES = ("smallest_marking", "largest_marking", "edge_first")


class StarTree(NamedTuple):
    """One flattened tree of a root star graph, with every outer vertex expanded.

    factors holds one polynomial per tree node, root first and then each
    child's subtree in outer-vertex order: the node's kernel body times
    its edge monomial and 1/(r! prod e_j!), times its sign or prefactor.
    The tree contributes the integral of their product over domain, which
    cascades the blocks of the whole tree in ancestor-first order; only
    the sum over a root graph's trees is reported.  Trees of one flatten
    call share factor and block objects.
    """

    factors: tuple[MultiPoly, ...]
    domain: CascadePolytope


def _child_i0(legs: tuple[Label, ...], new_edges: tuple[Label, ...], policy: str) -> Label:
    fixed = [l for l in legs if isinstance(l, int)]
    if not fixed or policy == "edge_first":
        return new_edges[0]
    pick = min if policy == "smallest_marking" else max
    return pick(fixed, key=label_key)


def _forces_wall(edges: int, inherited: tuple, c: Fraction, convention: ConventionFlags) -> bool:
    """Whether a child's trees cancel: under the default convention, one
    edge with no inherited leg is forced to its level c, and at an integer
    c the child's subtrees sum to v at a wall point, which is 0.
    """
    return convention == DEFAULT_CONVENTION and edges == 1 and not inherited and c.denominator == 1


# A subtree is (factors, blocks), the parts of a StarTree before its blocks
# form a cascade: their levels may use the parent's edge variables, so
# only a root tree's blocks, in ancestor-first order, form a closed one.
Subtree = tuple[tuple[MultiPoly, ...], tuple[Block, ...]]

# A vertex type is (genus, fixed marking labels, number of inherited edge
# legs, number of new edges); a label fixes its weight within one
# FlattenState.  Its memo entry holds the ids the expansion was built on,
# slots first and then internal edges, with the subtrees.
VertexType = tuple[int, tuple[int, ...], int, int]
Template = tuple[tuple[int, ...], list[Subtree]]


class FlattenState:
    """The flattening of one weight vector under one convention and child-root
    policy: the marking weights as constants, the sum of the fixed leg
    weights per leg tuple and the vertex-type memo that flatten fills.

    i0_policy picks each child graph's root; None means edge_first under
    the default convention, where v does not depend on it, and
    smallest_marking under every other convention.  evaluate builds one
    state per call and passes it to every root graph's flatten call, so
    each vertex type is expanded once per state.
    """

    __slots__ = ("alpha", "convention", "i0_policy", "wmap", "fixed_sums", "memo")

    def __init__(
        self,
        alpha: WeightVector,
        convention: ConventionFlags = DEFAULT_CONVENTION,
        i0_policy: str | None = None,
    ) -> None:
        if i0_policy is None:
            default = convention == DEFAULT_CONVENTION
            i0_policy = "edge_first" if default else "smallest_marking"
        if i0_policy not in I0_POLICIES:
            raise ValueError(f"unknown i0 policy {i0_policy!r}")
        self.alpha = alpha
        self.convention = convention
        self.i0_policy = i0_policy
        self.wmap: dict[int, MultiPoly] = {
            l: MultiPoly.const(w) for l, w in alpha.weight_map().items()
        }
        self.fixed_sums: dict[tuple[int, ...], Fraction] = {}
        self.memo: dict[VertexType, Template] = {}


def _renamed(template: Template, slots: tuple[int, ...]) -> list[Subtree]:
    """The template's subtrees on new slot ids and fresh internal edge ids.

    Slot ids ascend and every fresh id exceeds them, as in the template,
    so the renaming keeps the order of ids and each polynomial keeps its
    terms dict.
    """
    tids, trees = template
    fresh = [fresh_var() for _ in range(len(tids) - len(slots))]
    ids = dict(zip(tids, slots + tuple(fresh)))

    def poly(p: MultiPoly) -> MultiPoly:
        if not p.vars:
            return p
        return MultiPoly._make(tuple(ids[v] for v in p.vars), p.terms, p.den)

    # trees share factors and blocks; rename each once
    factors: dict[int, MultiPoly] = {}
    blocks: dict[int, Block] = {}
    out = []
    for t_factors, t_blocks in trees:
        fs = []
        for f in t_factors:
            new = factors.get(id(f))
            if new is None:
                new = factors[id(f)] = poly(f)
            fs.append(new)
        dom = []
        for blk in t_blocks:
            new = blocks.get(id(blk))
            if new is None:
                new = blocks[id(blk)] = Block(tuple(ids[v] for v in blk.vars), poly(blk.level))
            dom.append(new)
        out.append((tuple(fs), tuple(dom)))
    return out


def _expand_graph(graph: StarGraph, state: FlattenState) -> list[Subtree]:
    convention, memo, fixed_sums = state.convention, state.memo, state.fixed_sums
    # per-vertex blocks on fresh twist variables, level 2g-2+n+e minus the
    # leg weights.  The graph is dropped here, before its kernel is
    # expanded: inherited edges are positive, so a constant part c <= 0
    # leaves no twist, and a forced wall edge makes its trees cancel.
    # Legs sort fixed markings first, then inherited edges by id.
    blocks: list[Block] = []
    edge_vars: list[tuple[int, ...]] = []
    leg_ids: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for ov in graph.outer:
        fixed = tuple(l for l in ov.legs if isinstance(l, int))
        inherited = tuple(l[1] for l in ov.legs if not isinstance(l, int))
        s = fixed_sums.get(fixed)
        if s is None:
            s = fixed_sums[fixed] = sum(state.wmap[l].constant_value() for l in fixed)
        c = ov.euler - s
        if c <= 0 or _forces_wall(ov.edges, inherited, c, convention):
            return []
        vars_j = tuple(fresh_var() for _ in range(ov.edges))
        blocks.append(Block(vars_j, MultiPoly.affine(c, dict.fromkeys(inherited, -1))))
        edge_vars.append(vars_j)
        leg_ids.append((fixed, inherited))
    all_edges = tuple(v for vars_j in edge_vars for v in vars_j)

    # kernel slots: central legs, a marking weighted from the state and an
    # edge label by its variable, then all edges, negated
    slots = [
        state.wmap[l] if isinstance(l, int) else MultiPoly.variable(l[1]) for l in graph.legs0
    ] + [-MultiPoly.variable(v) for v in all_edges]
    i0 = graph.legs0.index(graph.i0)
    kern = kernel_A(graph.genus0, slots, i0, convention)

    # vertex factor: kernel polynomial times prod b / |Aut|, then the sign or prefactor
    factor = kern * MultiPoly(
        all_edges, {(1,) * len(all_edges): Fraction(1, graph.aut_order)}
    )
    if convention.term_sign == "printed":
        if graph.ell % 2:
            factor = -factor
    else:
        factor = factor * ((-slots[i0]) ** graph.j0)

    # expand children, each vertex type once; its slot ids ascend
    child_lists: list[list[Subtree]] = []
    for ov, vars_j, (fixed, inherited) in zip(graph.outer, edge_vars, leg_ids):
        key = (ov.genus, fixed, len(inherited), ov.edges)
        slot_ids = inherited + vars_j
        template = memo.get(key)
        if template is not None:
            subtrees = _renamed(template, slot_ids)
        else:
            edge_labels = tuple(("e", vid) for vid in vars_j)
            child_markings = ov.legs + edge_labels
            ci0 = _child_i0(child_markings, edge_labels, state.i0_policy)
            subtrees = []
            for sub in enumerate_star_graphs(ov.genus, child_markings, ci0):
                subtrees.extend(_expand_graph(sub, state))
            inner = sorted({v for _, bs in subtrees for blk in bs for v in blk.vars})
            memo[key] = (slot_ids + tuple(inner), subtrees)
        if not subtrees:
            return []
        child_lists.append(subtrees)

    out: list[Subtree] = []
    for combo in itertools.product(*child_lists):
        factors = [factor]
        all_blocks = list(blocks)
        for child_factors, child_blocks in combo:
            factors.extend(child_factors)
            all_blocks.extend(child_blocks)
        out.append((tuple(factors), tuple(all_blocks)))
    return out


def flatten(graph: StarGraph, state: FlattenState) -> list[StarTree]:
    """Flatten one root star graph at the state's weight vector.

    Returns one StarTree per combination of nested expansions, without
    the graphs whose trees cancel or whose domain is empty.  Vertex types
    expanded by earlier calls with the same state are reused with renamed
    variables, which changes no tree's value.
    """
    alpha = state.alpha
    if graph.genus != alpha.genus or set(graph.markings) != set(alpha.labels()):
        raise ValueError("graph does not match the weight vector")
    return [
        StarTree(factors, CascadePolytope(blocks))
        for factors, blocks in _expand_graph(graph, state)
    ]
