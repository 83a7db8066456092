"""Cross-convention validation harness.

Runs a fixed property suite against every member of the convention
matrix.  The shipped default must pass everything; every other
convention must fail at least one check.  The report is printable and
is what the `validate` CLI subcommand emits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import MultiPoly
from .graphs import I0_POLICIES, WeightVector
from .kernels import (
    ALL_CONVENTIONS,
    DEFAULT_CONVENTION,
    ConventionFlags,
    aab_table,
    det_factor_forms,
    kernel_A,
)
from .recursion import evaluate, genus0_oracle


class CheckRow(NamedTuple):
    check: str
    passed: bool
    detail: str


def _label(conv: ConventionFlags) -> str:
    return f"{conv.s_exponent}/{conv.term_sign}"


class ConventionReport(NamedTuple):
    convention: ConventionFlags
    rows: tuple[CheckRow, ...]

    @property
    def label(self) -> str:
        return _label(self.convention)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, check: str) -> CheckRow:
        for r in self.rows:
            if r.check == check:
                return r
        raise KeyError(check)


class ValidationReport(NamedTuple):
    reports: tuple[ConventionReport, ...]

    @property
    def ok(self) -> bool:
        return {r.convention for r in self.reports if r.all_pass} == {DEFAULT_CONVENTION}

    def report_for(self, convention: ConventionFlags) -> ConventionReport:
        for r in self.reports:
            if r.convention == convention:
                return r
        raise KeyError(convention)

    def render(self) -> str:
        default = _label(DEFAULT_CONVENTION)
        heads = [r.label + (" *" if r.label == default else "") for r in self.reports]
        name_w = max(len(c) for c in CHECK_NAMES) + 2
        col_w = [max(len(h), 4) + 2 for h in heads]
        lines = ["".join(["check".ljust(name_w)] + [h.ljust(w) for h, w in zip(heads, col_w)])]
        for check in CHECK_NAMES:
            cells = []
            for rep, w in zip(self.reports, col_w):
                cells.append(("pass" if rep.row(check).passed else "FAIL").ljust(w))
            lines.append(check.ljust(name_w) + "".join(cells))
        lines.append("")
        for rep in self.reports:
            for r in rep.rows:
                if not r.passed:
                    lines.append(f"  {rep.label}: {r.check}: {r.detail}")
        verdict = "ok" if self.ok else "MISCALIBRATED"
        lines.append(f"overall: {verdict} (default {default} must be the unique all-pass column)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "default": _label(DEFAULT_CONVENTION),
            "ok": self.ok,
            "matrix": {
                rep.label: {
                    r.check: {"passed": r.passed, "detail": r.detail} for r in rep.rows
                }
                for rep in self.reports
            },
        }


def _v(g: int, entries, i0: int, conv: ConventionFlags) -> Fraction:
    return evaluate(WeightVector(g, tuple(Fraction(e) for e in entries)), i0=i0, convention=conv).value


def _check_base_case(conv: ConventionFlags) -> tuple[bool, str]:
    points = [
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(7, 10), Fraction(1, 5), Fraction(1, 10)),
    ]
    for pt in points:
        got = _v(0, pt, 1, conv)
        if got != 1:
            return False, f"v{tuple(map(str, pt))} = {got}, expected 1"
    return True, f"{len(points)} points"


# chamber-spanning points; the last two sit on opposite sides of pair walls
_ORACLE_POINTS = [
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(9, 10), Fraction(3, 10), Fraction(1, 2), Fraction(3, 10)),
    (Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(9, 10), Fraction(1, 2), Fraction(2, 5)),
    (Fraction(11, 10), Fraction(3, 10), Fraction(3, 10), Fraction(3, 10)),
    (Fraction(1, 10), Fraction(1, 10), Fraction(9, 10), Fraction(9, 10)),
    (Fraction(7, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)),
]


def _check_genus0_oracle(conv: ConventionFlags) -> tuple[bool, str]:
    for pt in _ORACLE_POINTS:
        w = WeightVector(0, pt)
        want = genus0_oracle(w)
        got = _v(0, pt, 1, conv)
        if got != want:
            return False, f"v{tuple(map(str, pt))} = {got}, oracle {want}"
    return True, f"{len(_ORACLE_POINTS)} points"


def _check_kernel_wall_zero(conv: ConventionFlags) -> tuple[bool, str]:
    one = MultiPoly.const(Fraction(1))
    val = kernel_A(1, (one, one), 0, convention=conv).constant_value()
    if val != 0:
        return False, f"kernel at genus 1, slots (1,1) is {val}, expected 0"
    return True, "kernel vanishes at (1,1)"


_I0_CASES = [
    (0, (Fraction(9, 10), Fraction(3, 10), Fraction(1, 2), Fraction(3, 10)), (1, 3)),
    (1, (Fraction(1, 2), Fraction(3, 2)), (1, 2)),
    (1, (Fraction(5, 4), Fraction(5, 4), Fraction(1, 2)), (1, 3)),
]


def _check_i0_independence(conv: ConventionFlags) -> tuple[bool, str]:
    for g, pt, (ia, ib) in _I0_CASES:
        va = _v(g, pt, ia, conv)
        vb = _v(g, pt, ib, conv)
        if va != vb:
            return False, f"g={g} alpha={tuple(map(str, pt))}: i0={ia} gives {va}, i0={ib} gives {vb}"
    return True, f"{len(_I0_CASES)} cases"


def _check_relabel_invariance(conv: ConventionFlags) -> tuple[bool, str]:
    cases = [
        (0, (Fraction(9, 10), Fraction(3, 10), Fraction(1, 2), Fraction(3, 10)),
            (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10), Fraction(3, 10))),
        (1, (Fraction(1, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2))),
    ]
    for g, a, b in cases:
        va = _v(g, a, 1, conv)
        vb = _v(g, b, 1, conv)
        if va != vb:
            return False, f"g={g}: v{tuple(map(str, a))} = {va} but v{tuple(map(str, b))} = {vb}"
    return True, f"{len(cases)} permutations"


_INT_POINTS = [
    (0, (Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
    (1, (Fraction(1), Fraction(1))),
    (1, (Fraction(1), Fraction(1, 2), Fraction(3, 2))),
    (2, (Fraction(3),)),
]


def _check_integer_vanishing(conv: ConventionFlags) -> tuple[bool, str]:
    for g, pt in _INT_POINTS:
        got = _v(g, pt, 1, conv)
        if got != 0:
            return False, f"v(g={g}, {tuple(map(str, pt))}) = {got}, expected 0"
    return True, f"{len(_INT_POINTS)} points"


def _check_wall_quadratic(conv: ConventionFlags) -> tuple[bool, str]:
    # n=2 wall at entry 1: |v(1 +/- eps, 1 -/+ eps)| should scale like eps^2
    ratios = []
    for eps in (Fraction(1, 10), Fraction(1, 40), Fraction(1, 160)):
        for sgn in (1, -1):
            val = _v(1, (1 + sgn * eps, 1 - sgn * eps), 1, conv)
            if val == 0:
                return False, f"v at eps={eps} is exactly 0, no quadratic scale"
            ratios.append(abs(float(val)) / float(eps) ** 2)
    lo, hi = min(ratios), max(ratios)
    if hi / lo >= 1.5:
        return False, f"ratio range [{lo:.4g}, {hi:.4g}] varies by {hi / lo:.3f}x"
    return True, f"ratio range [{lo:.4g}, {hi:.4g}]"


def _check_wall_linear(conv: ConventionFlags) -> tuple[bool, str]:
    # n=4 wall at entry 1: order-1 vanishing along (1+e, 1/3-e, 1/3, 1/3)
    third = Fraction(1, 3)
    ratios = []
    for eps in (Fraction(1, 10), Fraction(1, 40), Fraction(1, 160)):
        for sgn in (1, -1):
            pt = (1 + sgn * eps, third - sgn * eps, third, third)
            val = _v(0, pt, 1, conv)
            if val == 0:
                return False, f"v at eps={eps} is exactly 0, no linear scale"
            ratios.append(abs(float(val)) / float(eps))
    lo, hi = min(ratios), max(ratios)
    if hi / lo >= 1.5:
        return False, f"ratio range [{lo:.4g}, {hi:.4g}] varies by {hi / lo:.3f}x"
    return True, f"ratio range [{lo:.4g}, {hi:.4g}]"


def _check_small_angle_decay(conv: ConventionFlags) -> tuple[bool, str]:
    vals = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        vals.append(abs(_v(1, (eps, 2 - eps), 1, conv)))
    if not (vals[0] > vals[1] > vals[2]):
        return False, f"|v| sequence {[str(x) for x in vals]} is not decreasing"
    return True, f"|v| decreases {float(vals[0]):.3g} > {float(vals[1]):.3g} > {float(vals[2]):.3g}"


def _check_policy_independence(conv: ConventionFlags) -> tuple[bool, str]:
    cases = [
        (1, (Fraction(1, 2), Fraction(3, 2))),
        (1, (Fraction(5, 4), Fraction(5, 4), Fraction(1, 2))),
    ]
    for g, pt in cases:
        w = WeightVector(g, pt)
        vals = {
            pol: evaluate(w, i0=1, convention=conv, i0_policy=pol).value
            for pol in I0_POLICIES
        }
        if len(set(vals.values())) != 1:
            return False, f"g={g} alpha={tuple(map(str, pt))}: {dict((k, str(v)) for k, v in vals.items())}"
    return True, f"{len(cases)} cases x {len(I0_POLICIES)} policies"


_DET_POINTS = [
    (0, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    (0, (Fraction(9, 10), Fraction(3, 10), Fraction(1, 2), Fraction(3, 10))),
    (1, (Fraction(1, 2), Fraction(3, 2))),
    (1, (Fraction(5, 4), Fraction(5, 4), Fraction(1, 2))),
    (2, (Fraction(1, 2), Fraction(7, 2))),
]


def _check_det_factor_forms(conv: ConventionFlags) -> tuple[bool, str]:
    worst = 0.0
    for g, pt in _DET_POINTS:
        sym, closed = det_factor_forms(g, pt)
        err = abs(sym - closed) / max(1.0, abs(closed))
        worst = max(worst, err)
    if worst > 1e-12:
        return False, f"forms disagree, worst relative error {worst:.3e}"
    return True, f"{len(_DET_POINTS)} points, worst relative error {worst:.1e}"


def _check_aab_residuals(conv: ConventionFlags) -> tuple[bool, str]:
    table = aab_table(3)
    if table.a(1) != Fraction(-1, 24):
        return False, f"a_1 = {table.a(1)}, expected -1/24"
    for g in (1, 2, 3):
        res = table.residual(g)
        if res != 0:
            return False, f"re-substitution residual at genus {g} is {res}"
    return True, "a_1 = -1/24, residuals 0 through genus 3"


_CHECK_FUNCS = {
    "base_case": _check_base_case,
    "genus0_oracle": _check_genus0_oracle,
    "kernel_wall_zero": _check_kernel_wall_zero,
    "i0_independence": _check_i0_independence,
    "relabel_invariance": _check_relabel_invariance,
    "integer_vanishing": _check_integer_vanishing,
    "wall_quadratic": _check_wall_quadratic,
    "wall_linear": _check_wall_linear,
    "small_angle_decay": _check_small_angle_decay,
    "policy_independence": _check_policy_independence,
    "det_factor_forms": _check_det_factor_forms,
    "aab_residuals": _check_aab_residuals,
}
CHECK_NAMES = tuple(_CHECK_FUNCS)


def run_validation() -> ValidationReport:
    reports = []
    for conv in ALL_CONVENTIONS:
        rows = []
        for name in CHECK_NAMES:
            try:
                passed, detail = _CHECK_FUNCS[name](conv)
            except Exception as exc:  # a convention may break structurally
                passed, detail = False, f"error: {exc}"
            rows.append(CheckRow(name, passed, detail))
        reports.append(ConventionReport(conv, tuple(rows)))
    return ValidationReport(tuple(reports))
