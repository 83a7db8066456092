"""Star graphs, twist domains, and the recursive flattening to polytopes.

A star graph for (g, markings, i0) has a central vertex of genus g0
carrying the distinguished marking i0 plus some other markings, and ell
outer vertices, the j-th of genus g_j joined to the center by e_j >= 1
edges and carrying the marking set legs_j.  The genus condition is
g = e0 - ell + sum_j g_j with e0 the total edge count, and every vertex
must be stable (2g - 2 + markings + edges > 0).

Outer descriptors are kept canonically sorted, so enumeration is free of
duplicates; a graph with r identical outer vertices stands for ell!/r!
ordered labelings and its terms carry the weight 1/(r! * prod e_j!),
which equals the reciprocal automorphism count 1/|Aut|.

Flattening expands every outer vertex through its own star graphs down
to kernel leaves, producing one StarTree per combination: an integrand
polynomial in the edge variables and a cascade of twist blocks, with
block level 2g_j - 2 + n_j + e_j - sum of leg weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

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


@dataclass(frozen=True)
class WeightVector:
    """Cone angles 2*pi*alpha_i; entries must sum to 2g-2+n exactly."""

    genus: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))
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

    @property
    def n(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def weight_map(self) -> dict[int, Fraction]:
        return {i + 1: e for i, e in enumerate(self.entries)}


@dataclass(frozen=True)
class OuterVertex:
    genus: int
    edges: int
    legs: tuple[Label, ...]

    @property
    def euler(self) -> int:
        """2g - 2 + n + e, the stability weight and the block level constant."""
        return 2 * self.genus - 2 + len(self.legs) + self.edges

    def sort_key(self):
        return (self.genus, self.edges, tuple(label_key(l) for l in self.legs))


@dataclass(frozen=True)
class StarGraph:
    genus0: int
    legs0: tuple[Label, ...]
    outer: tuple[OuterVertex, ...]
    i0: Label

    def __post_init__(self) -> None:
        if self.i0 not in self.legs0:
            raise ValueError("i0 must sit on the central vertex")
        if self.genus0 < 0 or any(ov.genus < 0 or ov.edges < 1 for ov in self.outer):
            raise ValueError("bad vertex data")
        if self.euler0 <= 0 or any(ov.euler <= 0 for ov in self.outer):
            raise ValueError("unstable vertex")

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
        """prod r! over groups of identical outer descriptors."""
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
        bits = []
        for ov in self.outer:
            s = f"({ov.genus},{ov.edges})[{legs(ov.legs)}]"
            if weights is not None:
                c = Fraction(ov.euler) - sum(
                    (Fraction(weights[l]) for l in ov.legs), Fraction(0)
                )
                s += f" c={c}"
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


def _legless_multisets(budget: int):
    """Non-decreasing tuples of stable legless (g, e) pairs, cost g+e-1 <= budget."""

    pairs = []
    for g in range(0, budget + 1):
        for e in range(1, budget + 2):
            if g + e - 1 <= budget and _stable(g, e):
                pairs.append((g, e))

    def rec(start: int, left: int):
        yield ()
        for idx in range(start, len(pairs)):
            g, e = pairs[idx]
            cost = g + e - 1
            if cost > left:
                continue
            for rest in rec(idx, left - cost):
                yield ((g, e),) + rest

    yield from rec(0, budget)


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


@dataclass(frozen=True)
class DomainInfo:
    """Block levels of the twist domain at a numeric weight vector."""

    levels: tuple[Fraction, ...]

    @property
    def empty(self) -> bool:
        return any(c <= 0 for c in self.levels)


def domain_of(graph: StarGraph, weights: Mapping[Label, Fraction]) -> DomainInfo:
    """Per-outer-vertex levels c_j = 2g_j-2+n_j+e_j - sum of leg weights."""
    levels = []
    for ov in graph.outer:
        c = Fraction(ov.euler) - sum((Fraction(weights[l]) for l in ov.legs), Fraction(0))
        levels.append(c)
    return DomainInfo(tuple(levels))


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

WeightValue = Union[Fraction, int]  # Fraction fixed weight, int formal var id


@dataclass(frozen=True)
class StarTree:
    """One flattened term: a star graph with fully expanded outer vertices.

    integrand and domain cover the whole subtree, the per-node factors
    (sign or prefactor, kernel body, edge monomial, 1/(r! prod e_j!))
    multiplied together and the blocks cascaded in ancestor-first order.
    """

    integrand: MultiPoly
    domain: CascadePolytope
    ident: str


def _child_i0(
    legs: tuple[Label, ...],
    new_edges: tuple[Label, ...],
    wmap: Mapping[Label, WeightValue],
    policy: str,
) -> Label:
    fixed = [l for l in legs if isinstance(wmap[l], Fraction)]
    if policy == "smallest_marking":
        if fixed:
            return min(fixed, key=label_key)
        return new_edges[0]
    if policy == "largest_marking":
        if fixed:
            return max(fixed, key=label_key)
        return new_edges[0]
    if policy == "edge_first":
        return new_edges[0]
    raise ValueError(f"unknown i0 policy {policy!r}")


def _slot_poly(value: WeightValue) -> MultiPoly:
    if isinstance(value, Fraction):
        return MultiPoly.const(value)
    return MultiPoly.variable(value)


def _expand_graph(
    graph: StarGraph,
    wmap: dict[Label, WeightValue],
    convention: ConventionFlags,
    policy: str,
) -> list[StarTree]:
    # fresh twist variables, grouped per outer vertex
    edge_vars: list[tuple[int, ...]] = []
    for ov in graph.outer:
        edge_vars.append(tuple(fresh_var() for _ in range(ov.edges)))

    # kernel slots: central legs then all edges, negated
    slot_labels = list(graph.legs0)
    slots: list[MultiPoly] = [_slot_poly(wmap[l]) for l in graph.legs0]
    for vars_j in edge_vars:
        for vid in vars_j:
            slots.append(-MultiPoly.variable(vid))
    kern = kernel_A(graph.genus0, slots, slot_labels.index(graph.i0), convention)

    factor = kern.body
    if convention.term_sign == "printed":
        if graph.ell % 2:
            factor = -factor
    else:
        factor = factor * ((-_slot_poly(wmap[graph.i0])) ** graph.j0)
    weight = Fraction(1, graph.sym_factor)
    for ov in graph.outer:
        weight /= math.factorial(ov.edges)
    factor = factor * weight
    for vars_j in edge_vars:
        for vid in vars_j:
            factor = factor * MultiPoly.variable(vid)

    # per-vertex blocks; prune structurally empty domains
    blocks: list[Block] = []
    for ov, vars_j in zip(graph.outer, edge_vars):
        level = MultiPoly.const(ov.euler)
        for l in ov.legs:
            level = level - _slot_poly(wmap[l])
        if level.is_constant() and level.constant_value() <= 0:
            return []
        blocks.append(Block(vars_j, level))

    # expand children
    child_lists: list[list[StarTree]] = []
    for ov, vars_j in zip(graph.outer, edge_vars):
        edge_labels = tuple(("e", vid) for vid in vars_j)
        child_wmap: dict[Label, WeightValue] = {l: wmap[l] for l in ov.legs}
        for lab, vid in zip(edge_labels, vars_j):
            child_wmap[lab] = vid
        child_markings = tuple(sorted(child_wmap, key=label_key))
        ci0 = _child_i0(child_markings, edge_labels, child_wmap, policy)
        subtrees: list[StarTree] = []
        for sub in enumerate_star_graphs(ov.genus, child_markings, ci0):
            subtrees.extend(_expand_graph(sub, child_wmap, convention, policy))
        if not subtrees:
            return []
        child_lists.append(subtrees)

    # idents must not leak run-dependent variable names: render edge legs
    # by their rank within this node, fixed markings by number
    edge_rank = {
        l: i
        for i, l in enumerate(
            sorted((l for l in graph.legs0 if not isinstance(l, int)), key=label_key), 1
        )
    }

    def leg_str(l: Label) -> str:
        return str(l) if isinstance(l, int) else f"e{edge_rank[l]}"

    node_ident = f"{graph.genus0}[" + ",".join(leg_str(l) for l in graph.legs0) + "]"
    out: list[StarTree] = []
    for combo in itertools.product(*child_lists):
        integrand = factor
        all_blocks = list(blocks)
        bits = []
        for ov, child in zip(graph.outer, combo):
            integrand = integrand * child.integrand
            all_blocks.extend(child.domain.blocks)
            bits.append(f"({ov.genus},{ov.edges})" + child.ident)
        ident = node_ident + ("" if not bits else "(" + " ".join(bits) + ")")
        out.append(StarTree(integrand, CascadePolytope(tuple(all_blocks)), ident))
    return out


def flatten(
    graph: StarGraph,
    alpha: WeightVector,
    convention: ConventionFlags = DEFAULT_CONVENTION,
    i0_policy: str = "smallest_marking",
) -> list[StarTree]:
    """Flatten one root star graph at a numeric weight vector.

    Returns one StarTree per combination of nested expansions, domains
    already pruned when structurally empty.
    """
    if i0_policy not in I0_POLICIES:
        raise ValueError(f"unknown i0 policy {i0_policy!r}")
    wmap: dict[Label, WeightValue] = dict(alpha.weight_map())
    if graph.genus != alpha.genus or set(graph.markings) != set(alpha.labels()):
        raise ValueError("graph does not match the weight vector")
    trees = _expand_graph(graph, wmap, convention, i0_policy)
    for t in trees:
        # root domains must be closed; only subtree domains may be parametric
        if t.domain.external_vars:
            raise AssertionError(f"open domain at root of {t.ident}")
    return trees
