"""Acceptance suite: one test per shipping criterion.

Each test prints a single `criterion N (...): PASS` line on success and
asserts its own wall-clock budget.  Random data is seeded so reruns are
deterministic.  The golden file tests/golden/g2_scan.csv pins the genus-2
slice byte for byte; regenerate it with
`python3 -m flatvol.cli scan --g 2 --steps 40 --out tests/golden/g2_scan.csv`
only when the engine's output format intentionally changes.
tests/golden/validate.json pins `flatvol validate --format json` the same
way; regenerate it with
`python3 -m flatvol.cli validate --format json --out tests/golden/validate.json`.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from flatvol.cli import main
from flatvol.exact import MultiPoly, fresh_var, parse_rational
from flatvol.graphs import WeightVector
from flatvol.kernels import (
    DEFAULT_CONVENTION,
    ConventionFlags,
    aab_table,
    det_factor_forms,
    kernel_A,
    series_S,
)
from flatvol.polytopes import Block, CascadePolytope, integrate, lattice_sum
from flatvol.recursion import evaluate, genus0_oracle, scan
from flatvol.validate import run_validation

GOLDEN = Path(__file__).parent / "golden"


def _w(genus, *entries):
    return WeightVector(genus, tuple(parse_rational(str(e)) for e in entries))


def _random_point(rng, genus, n):
    """Random positive rational point with no integer entry."""
    while True:
        ks = [rng.randint(1, 30) for _ in range(n)]
        total = sum(ks)
        target = 2 * genus - 2 + n
        entries = tuple(Fraction(k * target, total) for k in ks)
        if all(e.denominator > 1 for e in entries):
            return WeightVector(genus, entries)


def _budget(t0, limit, label):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"


def test_criterion_01_base_case():
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(10):
        w = _random_point(rng, 0, 3)
        assert evaluate(w).value == 1, w.entries
    _budget(t0, 1, "criterion 1")
    print("criterion 1 (base case): PASS")


def test_criterion_02_genus0_oracle():
    t0 = time.monotonic()
    rng = random.Random(211)

    # oracle sanity: full S4 symmetry at 50 random points
    for _ in range(50):
        w = _random_point(rng, 0, 4)
        ref = genus0_oracle(w)
        for perm in itertools.permutations(range(4)):
            pw = WeightVector(0, tuple(w.entries[i] for i in perm))
            assert genus0_oracle(pw) == ref, w.entries

    # engine vs oracle on >= 20 points hitting all 8 sign chambers of
    # the pair walls a_1+a_2, a_1+a_3, a_1+a_4 = 1
    points = []
    chambers = set()
    while len(points) < 20 or len(chambers) < 8:
        w = _random_point(rng, 0, 4)
        a = w.entries
        sums = (a[0] + a[1], a[0] + a[2], a[0] + a[3])
        if any(s == 1 for s in sums):
            continue
        points.append(w)
        chambers.add(tuple(s > 1 for s in sums))
        assert len(points) < 500, "chamber sampling failed to cover"
    assert len(chambers) == 8
    for w in points:
        assert evaluate(w).value == genus0_oracle(w), w.entries

    # pinned values
    assert evaluate(_w(0, "9/10", "3/10", "1/2", "3/10")).value == Fraction(-1, 10)
    assert evaluate(_w(0, 1, "1/3", "1/3", "1/3")).value == 0
    _budget(t0, 10, "criterion 2")
    print("criterion 2 (genus-0 oracle): PASS")


# five integer-entry points per shape; (1, 2) is one-dimensional and has
# exactly one admissible integer point, so it is listed once
_INTEGER_POINTS = {
    (0, 4): [
        (1, "1/3", "1/3", "1/3"),
        (1, "1/2", "1/4", "1/4"),
        (1, "1/5", "2/5", "2/5"),
        (1, "3/4", "1/8", "1/8"),
        ("1/6", 1, "1/3", "1/2"),
    ],
    (0, 5): [
        (1, "2/3", "2/3", "1/3", "1/3"),
        (2, "1/4", "1/4", "1/4", "1/4"),
        (1, "3/4", "3/4", "1/4", "1/4"),
        ("1/2", "1/2", 1, "1/2", "1/2"),
        (1, 1, "1/3", "1/3", "1/3"),
    ],
    (1, 2): [(1, 1)],
    (1, 3): [
        (1, "1/2", "3/2"),
        (1, "3/4", "5/4"),
        (2, "1/2", "1/2"),
        (1, 1, 1),
        ("7/4", 1, "1/4"),
    ],
}


def test_criterion_03_invariance_suite():
    t0 = time.monotonic()
    rng = random.Random(307)
    for genus, n in ((0, 4), (0, 5), (1, 2), (1, 3)):
        for _ in range(10):
            w = _random_point(rng, genus, n)
            ref = evaluate(w, i0=1).value
            for i0 in range(2, n + 1):
                assert evaluate(w, i0=i0).value == ref, (w.entries, i0)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                pw = WeightVector(genus, tuple(w.entries[i] for i in perm))
                assert evaluate(pw).value == ref, (w.entries, perm)
        for pt in _INTEGER_POINTS[(genus, n)]:
            assert evaluate(_w(genus, *pt)).value == 0, pt
    _budget(t0, 300, "criterion 3")
    print("criterion 3 (invariance suite): PASS")


def test_criterion_04_kernel_regressions():
    t0 = time.monotonic()
    a1, a2 = fresh_var("ka1"), fresh_var("ka2")
    p1, p2 = MultiPoly.variable(a1), MultiPoly.variable(a2)

    for conv in (DEFAULT_CONVENTION, ConventionFlags("printed", "printed")):
        for slots in ((p1, p2, MultiPoly.const(Fraction(1, 2))), (p1, p2)):
            assert kernel_A(0, slots, 0, conv) == MultiPoly.one()

    sixth = Fraction(1, 24)
    printed = kernel_A(1, (p1, p2), 0, ConventionFlags("printed", "prefactor"))
    assert printed == (p1 * 2 + p2 * p2 - MultiPoly.const(Fraction(2))) * sixth
    shifted = kernel_A(1, (p1, p2), 0, DEFAULT_CONVENTION)
    assert shifted == (p1 * 2 + p2 * p2 - MultiPoly.const(Fraction(3))) * sixth
    at_wall = kernel_A(1, (Fraction(1), Fraction(1)), 0, DEFAULT_CONVENTION)
    assert at_wall.constant_value() == 0

    s = series_S(6).coeffs
    assert s[0] == 1 and s[2] == Fraction(1, 24) and s[4] == Fraction(1, 1920)
    assert s[1] == s[3] == 0
    _budget(t0, 1, "criterion 4")
    print("criterion 4 (kernel regressions): PASS")


def test_criterion_05_aab_solver():
    t0 = time.monotonic()
    table = aab_table(3)
    assert table.a(1) == Fraction(-1, 24)
    for g in (1, 2, 3):
        assert table.residual(g) == 0, g
    _budget(t0, 1, "criterion 5")
    print("criterion 5 (power-locus solver): PASS")


def test_criterion_06_q_identity():
    t0 = time.monotonic()
    rng = random.Random(613)
    done = 0
    while done < 100:
        g = rng.randint(0, 3)
        n = rng.randint(3 if g == 0 else 2, 6)
        w = _random_point(rng, g, n)
        sym, closed = det_factor_forms(g, w.entries)
        assert abs(sym - closed) / max(1.0, abs(closed)) < 1e-12, (g, w.entries)
        done += 1
    _budget(t0, 5, "criterion 6")
    print("criterion 6 (determinant identity): PASS")


def test_criterion_07_polytope_engine():
    t0 = time.monotonic()

    def simplex(nvars, level, tag):
        vs = tuple(fresh_var(f"{tag}{i}") for i in range(nvars))
        return vs, CascadePolytope((Block(vs, MultiPoly.const(Fraction(level))),))

    vs, tri = simplex(3, 1, "ac7a")
    assert integrate((MultiPoly.one(),), tri) == Fraction(1, 2)
    assert integrate((MultiPoly.variable(vs[0]),), tri) == Fraction(1, 6)
    c = Fraction(4, 3)
    _, scaled = simplex(4, c, "ac7b")
    assert integrate((MultiPoly.one(),), scaled) == c**3 / 6

    # additivity under random hyperplane splits of a simplex
    from flatvol.polytopes import enumerate_vertices, integrate_over_simplex, triangulate

    def region(p, rows, free, apex_rule="lex_min"):
        # rows (b, a, s) stand for (b + a.x) / s >= 0
        vrep = enumerate_vertices(rows, free)
        if not vrep.full_dim:
            return Fraction(0)
        verts = [(den, dict(zip(free, num))) for den, *num in vrep.vertices]
        return sum(
            (
                integrate_over_simplex(p, [verts[k] for k in s], free)
                for s in triangulate(vrep, apex_rule)
            ),
            Fraction(0),
        )

    rng = random.Random(701)
    x, y = fresh_var("ac7x"), fresh_var("ac7y")
    px, py = MultiPoly.variable(x), MultiPoly.variable(y)
    base = [(0, (1, 0), 1), (0, (0, 1), 1), (1, (-1, -1), 1)]
    p = px * px + py
    for _ in range(6):
        # the cut a x + b y - c >= 0 over the denominator of c
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = Fraction(rng.randint(-2, 2), rng.randint(2, 5))
        if not a and not b:
            continue
        cut = (-c.numerator, (a * c.denominator, b * c.denominator), c.denominator)
        flip = (c.numerator, (-a * c.denominator, -b * c.denominator), c.denominator)
        whole = region(p, base, (x, y))
        parts = region(p, base + [cut], (x, y)) + region(p, base + [flip], (x, y))
        assert parts == whole

    # triangulation independence on the irregular quadrilateral
    # x, y, 3/2 - x - y, 1 - y + x/3 >= 0
    quad = [(0, (1, 0), 1), (0, (0, 1), 1), (3, (-2, -2), 2), (3, (1, -3), 3)]
    q = px * py + px
    assert region(q, quad, (x, y), "lex_min") == region(q, quad, (x, y), "lex_max")

    # Riemann sums on dimension <= 2 domains: decreasing error, < 2% at k=400
    for nvars, integrand_of in ((2, lambda v: MultiPoly.variable(v[0])),
                                (3, lambda v: MultiPoly.variable(v[0]) * MultiPoly.variable(v[1]))):
        vs, dom = simplex(nvars, 1, f"ac7r{nvars}")
        p = integrand_of(vs)
        exact = float(integrate((p,), dom))
        errs = [abs(float(lattice_sum(p, dom, k)) - exact) / abs(exact) for k in (100, 200, 400)]
        assert errs[0] > errs[1] > errs[2], errs
        assert errs[2] < 0.02, errs
    _budget(t0, 60, "criterion 7")
    print("criterion 7 (polytope engine): PASS")


def test_criterion_08_wall_behavior():
    t0 = time.monotonic()
    ratios = []
    for eps in (Fraction(1, 10), Fraction(1, 40), Fraction(1, 160)):
        for sgn in (1, -1):
            v = evaluate(_w(1, 1 + sgn * eps, 1 - sgn * eps)).value
            ratios.append(abs(v) / eps**2)
    assert max(ratios) / min(ratios) < Fraction(3, 2), ratios

    decay = [abs(evaluate(_w(1, eps, 2 - eps)).value)
             for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))]
    assert decay[0] > decay[1] > decay[2], decay
    _budget(t0, 60, "criterion 8")
    print("criterion 8 (wall behavior): PASS")


def test_criterion_09_slice_scans(tmp_path):
    t0 = time.monotonic()
    rows = scan(1, steps=200)
    assert len(rows) == 200
    # the grid 2i/201 never hits the wall at t = 1, so every row is a
    # clean sample; (-1)^g v must be >= 0 throughout
    assert all(r.flag == "" for r in rows)
    assert all(-r.value >= 0 for r in rows)
    assert evaluate(_w(1, 1, 1)).value == 0

    target = tmp_path / "g2_scan.csv"
    assert main(["scan", "--g", "2", "--steps", "40", "--out", str(target)]) == 0
    golden = (GOLDEN / "g2_scan.csv").read_bytes()
    assert target.read_bytes() == golden
    _budget(t0, 1800, "criterion 9")
    print("criterion 9 (slice scans vs golden): PASS")


def test_criterion_10_validation_matrix(capsys):
    report = run_validation()
    with capsys.disabled():
        print()
        print(report.render())
    # the bytes cmd_validate writes for --format json
    pinned = (GOLDEN / "validate.json").read_text(encoding="utf-8")
    assert json.dumps(report.to_dict(), indent=2) + "\n" == pinned
    assert report.ok
    assert report.report_for(DEFAULT_CONVENTION).all_pass
    printed = report.report_for(ConventionFlags("printed", "printed"))
    assert not printed.all_pass
    assert not printed.row("genus0_oracle").passed
    print("criterion 10 (validation matrix): PASS")
