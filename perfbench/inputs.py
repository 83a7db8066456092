"""Workload inputs for the benchmark.

Seed 0 (the default) gives the pinned points below, each with its known
exact value.  Any other seed moves every point by a small rational step
that keeps its star-graph pruning pattern, so the same trees are built
and the work stays comparable from seed to seed:

    b_i = a_i + k_i / Q   for i >= 2,   b_1 = a_1 - (k_2 + ... + k_n) / Q,

with each k_i drawn from 1..K and Q = L * M, where L is the common
denominator of the pinned entries and M is a prime above K * (n - 1).
Flattening prunes a block when its constant level, an integer minus a
sum of entries other than the root marking 1, is <= 0.  Every such sum
rises by less than 1 / L, so it stays below every integer it was below
and reaches no integer it was under; sums that were integers rise off
the wall on the side that is still pruned.  Seeded values have no
pinned rational; they are checked by evaluating the reversed entry
order, since v is symmetric under the shipped convention.

The scan workload samples the default genus-2 slice alpha(t) = (t, 4 - t)
at t = 4 i / P, i = 1..600.  Seed 0 uses P = 601 through the default
`scan(2, steps=600)` call; other seeds use an odd P in 603..611, which
keeps every row off the walls t in {1, 2, 3}.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DEFAULT_SEED = 0


def _q(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in text.split(","))


# (genus, entries, pinned exact v, step bound K) per item
EVAL_ITEMS = {
    "genus3": (
        (3, _q("1/3,17/3"), Fraction(-242, 1594323), 4),
        (3, _q("2/3,16/3"), Fraction(-923, 12754584), 4),
        (3, _q("5/3,13/3"), Fraction(-223, 6377292), 4),
    ),
    "census": (
        (0, _q("1/2,2/3,5/6,4/5,7/10,1/2,5/6,7/6"), Fraction(125503, 4860000), 2),
        (1, _q("1/2,2/3,5/6,4/3,7/6,3/2"), Fraction(-443, 279936), 2),
    ),
}

SCAN_GENUS = 2
SCAN_STEPS = 600
SCAN_DEFAULT_DENOMINATOR = 601
SCAN_SEEDED_DENOMINATORS = (603, 605, 607, 609, 611)
SCAN_PINNED_SUM = Fraction(8421860179839737314, 84965488510702692603)

WORKLOADS = ("genus3", "census", "scan")


def _next_prime(m: int) -> int:
    m += 1
    while any(m % p == 0 for p in range(2, math.isqrt(m) + 1)):
        m += 1
    return m


def shifted_point(entries: tuple[Fraction, ...], k_max: int, rng: random.Random) -> tuple[Fraction, ...]:
    """Move a point inside its pruning cell by steps k_i / Q (see module doc)."""
    n = len(entries)
    lcm = math.lcm(*(e.denominator for e in entries))
    q = lcm * _next_prime(k_max * (n - 1))
    ks = [rng.randint(1, k_max) for _ in range(n - 1)]
    return (entries[0] - Fraction(sum(ks), q),) + tuple(
        e + Fraction(k, q) for e, k in zip(entries[1:], ks)
    )


def eval_item(genus: int, entries: tuple[Fraction, ...], expect: Fraction | None) -> dict:
    return {
        "kind": "eval",
        "genus": genus,
        "alpha": [str(e) for e in entries],
        "expect": None if expect is None else str(expect),
    }


def scan_item(denominator: int, expect: Fraction | None) -> dict:
    """One genus-2 slice scan; t_max = 4 * 601 / P gives t = 4 i / P."""
    t_max = Fraction(2 * SCAN_GENUS * (SCAN_STEPS + 1), denominator)
    return {
        "kind": "scan",
        "genus": SCAN_GENUS,
        "steps": SCAN_STEPS,
        "t_max": None if denominator == SCAN_DEFAULT_DENOMINATOR else str(t_max),
        "expect": None if expect is None else str(expect),
    }


def items_for(workload: str, seed: int) -> list[dict]:
    """The item list of a workload; pinned values only for the default seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    pinned = seed == DEFAULT_SEED
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        if pinned:
            return [scan_item(SCAN_DEFAULT_DENOMINATOR, SCAN_PINNED_SUM)]
        return [scan_item(rng.choice(SCAN_SEEDED_DENOMINATORS), None)]
    out = []
    for genus, entries, value, k_max in EVAL_ITEMS[workload]:
        if pinned:
            out.append(eval_item(genus, entries, value))
        else:
            out.append(eval_item(genus, shifted_point(entries, k_max, rng), None))
    return out
