"""Quick self-test of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that a wrong
pinned value is reported as a failure, that the tracer puts the original
functions back, that seeded points keep the pinned points' pruning
pattern, and that run.py refuses to run without the engine source.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run

HERE = run.HERE
TINY = [
    run.inputs.eval_item(0, (Fraction(1, 2),) * 4, Fraction(-1, 2)),
    run.inputs.eval_item(1, (Fraction(1, 2), Fraction(3, 2)), Fraction(-1, 192)),
]


def check(cond: bool, what: str) -> None:
    print(f"selftest: {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        raise SystemExit(1)


def metric_names(kind: str) -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def emitted(report: dict, trace: bool) -> dict:
    return json.loads(run.result_line(report, trace))


def test_metrics_emitted() -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        report = run.measure("selftest", 0, 0.0, trace, items=TINY)
        out = emitted(report, trace)
        check(out["correct"] and out["failed"] == 0, f"tiny pinned values exact (trace={int(trace)})")
        check(sorted(out["metrics"]) == sorted(metric_names(kind)), f"every {kind} metric emitted")
        check(
            all(isinstance(m["value"], (int, float)) and m["unit"] for m in out["metrics"].values()),
            f"{kind} metrics carry a number and a unit",
        )
    check(report["per_layer"]["recursion.evaluate.calls"] == len(TINY), "one evaluate span per item")


def test_wrong_value_fails() -> None:
    wrong = [dict(TINY[0], expect="-1/3"), TINY[1]]
    report = run.measure("selftest", 0, 0.0, False, items=wrong)
    out = emitted(report, False)
    check(not out["correct"] and out["failed"] == 1, "a wrong pinned value counts as one failure")


def test_wrappers_restored() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from flatvol import recursion
    from flatvol.graphs import WeightVector

    before = run.spans.current_targets()
    with run.spans.Tracer() as tracer:
        check(run.spans.current_targets() != before, "wrappers installed while tracing")
        fv = recursion.evaluate(WeightVector(0, TINY[0]["alpha"]))
    check(fv.value == Fraction(-1, 2), "traced value exact")
    after = run.spans.current_targets()
    check(all(a is b for a, b in zip(before, after)), "original functions restored after tracing")
    layers = tracer.layers()
    check(layers["recursion.evaluate"]["calls"] == 1, "evaluate span recorded")
    top = [i for i, p in enumerate(tracer.parent) if p < 0]
    roots = sum(tracer.end[i] - tracer.start[i] for i in top)
    check(sum(v["self_s"] for v in layers.values()) <= roots + 1e-9, "self times fit in the root spans")


def test_seeded_pruning_pattern() -> None:
    """Every sum over entries 2..n sits on the same side of every integer."""

    def pattern(entries: tuple[Fraction, ...]) -> tuple:
        rest = entries[1:]
        sums = (sum(c) for r in range(1, len(rest) + 1) for c in itertools.combinations(rest, r))
        return tuple(s >= k for s in sums for k in range(1, int(sum(entries)) + 1))

    for workload, items in run.inputs.EVAL_ITEMS.items():
        for seed in range(1, 21):
            drawn = run.inputs.items_for(workload, seed)
            for (_, pinned, _, _), item in zip(items, drawn):
                alpha = tuple(Fraction(e) for e in item["alpha"])
                same = pattern(alpha) == pattern(pinned) and sum(alpha) == sum(pinned)
                if not same or any(e <= 0 or e.denominator == 1 for e in alpha):
                    check(False, f"{workload} seed {seed} keeps the pruning pattern")
    check(True, "seeded points keep the pinned pruning pattern (seeds 1..20)")


def test_refuses_without_source() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "no source: non-zero exit and no result")


def main() -> int:
    test_metrics_emitted()
    test_wrong_value_fails()
    test_wrappers_restored()
    test_seeded_pruning_pattern()
    test_refuses_without_source()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
