"""flatvol benchmark: exact evaluation, end to end and per layer.

    python3 perfbench/run.py --workload genus3 --seed 0 --seconds 20 --trace 0

Every interpreter is fresh and runs alone (closed loop, one caller, one
thread): the set-up repetitions, each timed pass over the workload's item
list, and the check that gives seeded items their expected values.  With
--trace 0 the last line of stdout is a JSON object holding the end-to-end
metrics; with --trace 1 traced passes alternate with untraced ones and
the JSON holds the per-layer metrics.  The lines before it are a readable
report.  The exit code is 0 only when every value checked is exact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPS_PER_PASS = 8  # set-up probes run before every pass, spread over the run
RUN_DEADLINE_S = 170.0  # every worker is killed past this, so a run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SPAN_COUNTS = {  # per-layer counts beside calls and self time
    "exact.compose_affine.terms_out": "count",
    "polytopes.enumerate_vertices.bases": "count",
    "polytopes.enumerate_vertices.full_dim_frac": "ratio",
    "polytopes.triangulate.simplices": "count",
    "graphs.flatten.trees": "count",
    "recursion.terms_nonzero_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(script: str, deadline: float, args: tuple = (), job: dict | None = None) -> dict:
    """Run one fresh interpreter to completion and return its JSON line."""
    left = deadline - monotonic()
    if left <= 0:
        raise HarnessError("run deadline passed")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            input=None if job is None else json.dumps(dict(job, root=ROOT)),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{script} passed the run deadline") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(job: dict, deadline: float) -> dict:
    return spawn("worker.py", deadline, job=job)


def setup_probe(deadline: float) -> dict:
    return spawn("setup_probe.py", deadline, args=(os.path.join(ROOT, "src"),))


def expected_results(items: list[dict], deadline: float) -> list[dict]:
    """Pinned values, or for seeded items the reversed-order evaluation."""
    if all(it["expect"] is not None for it in items):
        return [{"value": it["expect"]} for it in items]
    return worker({"mode": "verify", "items": items}, deadline)["results"]


def item_failures(items: list[dict], got: list[dict], want: list[dict], ref: list[dict]) -> list[str]:
    """Mismatches of one pass against expected values and the first pass."""
    bad = []
    for k, (item, g, w, r) in enumerate(zip(items, got, want, ref)):
        if "error" in g:
            bad.append(f"item {k}: {g['error']}")
        elif "error" in w:
            bad.append(f"item {k}: check failed: {w['error']}")
        elif Fraction(g["value"]) != Fraction(w["value"]):
            bad.append(f"item {k}: value {g['value']} != expected {w['value']}")
        elif item["kind"] == "scan":
            if g["rows"] != item["steps"] or g["flagged"]:
                bad.append(f"item {k}: {g['rows']} rows, {g['flagged']} flagged")
            elif g["digest"] != w.get("digest", r.get("digest")):
                bad.append(f"item {k}: scan rows differ from the reference rows")
    return bad


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics as medians over the traced passes."""
    out: dict[str, float] = {}
    med = statistics.median
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = med(p["layers"][name]["calls"] for p in traced)
        out[f"{name}.self_s"] = med(p["layers"][name]["self_s"] for p in traced)

    def count(p: dict, key: str) -> int:
        return p["counts"].get(key, 0)

    def frac(num: int, den: int) -> float:
        return num / den if den else 0.0

    for key in (
        "exact.compose_affine.terms_out",
        "polytopes.enumerate_vertices.bases",
        "polytopes.triangulate.simplices",
        "graphs.flatten.trees",
    ):
        out[key] = med(count(p, key) for p in traced)
    out["polytopes.enumerate_vertices.full_dim_frac"] = med(
        frac(
            count(p, "polytopes.enumerate_vertices.full_dim"),
            p["layers"]["polytopes.enumerate_vertices"]["calls"],
        )
        for p in traced
    )
    out["recursion.terms_nonzero_frac"] = med(
        frac(count(p, "recursion.terms_nonzero"), count(p, "recursion.terms")) for p in traced
    )
    out["trace.overhead_frac"] = med(p["wall_s"] for p in traced) / untraced_wall - 1.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, items: list[dict] | None = None) -> dict:
    """One benchmark run; returns the report dict (metrics, counts, problems)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "flatvol", "__init__.py")):
        raise HarnessError(f"no engine source under {os.path.join(ROOT, 'src')}")
    deadline = monotonic() + RUN_DEADLINE_S
    items = inputs.items_for(workload, seed) if items is None else items
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.tsv")

    setup_probe(deadline)  # compiles bytecode; not measured
    setups: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    t0 = monotonic()
    while monotonic() - t0 < seconds or not untraced or (trace and not traced):
        setups.extend(setup_probe(deadline) for _ in range(SETUP_REPS_PER_PASS))
        tracing = trace and len(traced) < len(untraced)
        job = {"mode": "pass", "items": items, "trace": tracing, "spans_path": spans_path}
        (traced if tracing else untraced).append(worker(job, deadline))

    want = expected_results(items, deadline)
    ref = untraced[0]["results"]
    problems: list[str] = []
    attempted = failed = 0
    for s in setups:
        attempted += 1
        if not s["ok"]:
            failed += 1
            problems.append(f"set-up base case gave {s['value']}, expected 1")
    for p in untraced + traced:
        bad = item_failures(items, p["results"], want, ref)
        attempted += len(items)
        failed += len(bad)
        problems.extend(bad)
    for p in traced:
        if not p["restored"]:
            problems.append("traced pass left a wrapper installed")
        self_sum = sum(v["self_s"] for v in p["layers"].values())
        if self_sum > p["wall_s"] + 1e-6:
            problems.append(f"self times sum to {self_sum:.6f} s > traced wall {p['wall_s']:.6f} s")

    walls = [p["wall_s"] for p in untraced]
    setup_s = [s["setup_s"] for s in setups]
    report = {
        "workload": workload,
        "seed": seed,
        "pinned": all(it["expect"] is not None for it in items),
        "items": len(items),
        "setup_samples": setup_s,
        "wall_samples": walls,
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "traced_passes": len(traced),
    }
    if traced:
        report["per_layer"] = layer_metrics(traced, statistics.median(walls))
        report["traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    return report


def print_report(r: dict, seconds: float, trace: bool) -> None:
    origin = "pinned values" if r["pinned"] else "checked on reversed entries"
    print(f"flatvol benchmark  workload={r['workload']}  seed={r['seed']} ({origin})"
          f"  seconds={seconds:g}  trace={int(trace)}")
    print(f"  {r['items']} item(s) per pass, {len(r['wall_samples'])} untraced pass(es),"
          f" {r['traced_passes']} traced, {len(r['setup_samples'])} set-up repetitions")
    e = r["end_to_end"]
    for name, samples in (("setup_s", r["setup_samples"]), ("wall_s", r["wall_samples"])):
        q1, q3 = quartiles(samples)
        print(f"  {name:<14} {e[name]:>12.6f} s      median of {len(samples)} (q1 {q1:.6f}, q3 {q3:.6f})")
    print(f"  {'peak_rss_mb':<14} {e['peak_rss_mb']:>12.3f} MB     median over untraced passes")
    frac = r["failed"] / r["attempted"]
    print(f"  {'failed_frac':<14} {frac:>12g} ratio  ({r['failed']} failed of {r['attempted']} checked)")
    for line in r["problems"][:20]:
        print(f"  FAIL {line}")
    if "per_layer" not in r:
        return
    layers = r["per_layer"]
    wall = r["traced_wall_s"]
    print(f"  per layer (median of {r['traced_passes']} traced pass(es); share of traced wall {wall:.4f} s)")
    print(f"    {'span':<36} {'calls':>9} {'self_s':>11} {'share':>7}")
    ranked = sorted(spans.SPAN_NAMES, key=lambda n: -layers[f"{n}.self_s"])
    for name in ranked:
        self_s = layers[f"{name}.self_s"]
        print(f"    {name:<36} {layers[name + '.calls']:>9g} {self_s:>11.5f} {self_s / wall:>7.1%}")
    for key, unit in SPAN_COUNTS.items():
        print(f"    {key:<44} {layers[key]:>14.6g} {unit}")


def result_line(r: dict, trace: bool) -> str:
    if trace:
        units = {f"{n}.calls": "count" for n in spans.SPAN_NAMES}
        units.update({f"{n}.self_s": "s" for n in spans.SPAN_NAMES})
        units.update(SPAN_COUNTS)
        values = r["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = r["end_to_end"]
    return json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    try:
        report = measure(args.workload, args.seed, args.seconds, trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(report, args.seconds, trace)
    print(result_line(report, trace))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
