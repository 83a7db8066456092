"""One fresh interpreter of the benchmark: a timed pass or a check.

Reads a JSON job on stdin and prints one JSON result line on stdout.
Modes:

  pass    run the item list once, timed, optionally under the tracer
  verify  evaluate each item on the reversed entry order

The engine is imported from `<root>/src`, so the checkout's own source is
what gets measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter


def _scan_rows(recursion, item: dict, reverse: bool):
    genus, steps = item["genus"], item["steps"]
    if item["t_max"] is None and not reverse:
        return recursion.scan(genus, steps=steps)
    t_max = Fraction(item["t_max"] or 2 * genus)
    base, direction = (Fraction(0), Fraction(2 * genus)), (Fraction(1), Fraction(-1))
    if reverse:
        base, direction = base[::-1], direction[::-1]
    return recursion.scan(
        genus, 2, steps, base=base, direction=direction, t_min=Fraction(0), t_max=t_max
    )


def _run(recursion, WeightVector, item: dict, reverse: bool = False):
    """The raw result of one item: a FlatValue or a list of ScanRows."""
    if item["kind"] == "scan":
        return _scan_rows(recursion, item, reverse)
    entries = [Fraction(e) for e in item["alpha"]]
    if reverse:
        entries.reverse()
    return recursion.evaluate(WeightVector(item["genus"], tuple(entries)))


def _summary(item: dict, out) -> dict:
    """What run.py compares: the exact value, or a scan's row sum and digest."""
    if item["kind"] == "eval":
        return {"value": str(out.value)}
    values = [r.value for r in out]
    return {
        "value": str(sum((v for v in values if v is not None), Fraction(0))),
        "rows": len(out),
        "flagged": sum(1 for r in out if r.flag),
        "digest": hashlib.sha256(";".join(map(str, values)).encode()).hexdigest(),
    }


def _items(recursion, WeightVector, items: list[dict], reverse: bool = False):
    """Run each item in order; an item that raises gets None and its error text."""
    raws, errors = [], []
    for item in items:
        try:
            raws.append(_run(recursion, WeightVector, item, reverse))
            errors.append(None)
        except Exception as exc:  # a failed item is reported, the pass goes on
            raws.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return raws, errors


def _results(items, raws, errors) -> list[dict]:
    return [
        {"error": err} if err is not None else _summary(item, raw)
        for item, raw, err in zip(items, raws, errors)
    ]


def timed_pass(job: dict) -> dict:
    from flatvol import recursion
    from flatvol.graphs import WeightVector

    import spans

    items = job["items"]
    tracer = spans.Tracer() if job["trace"] else None
    before = spans.current_targets()
    with tracer or contextlib.nullcontext():
        t0 = perf_counter()
        raws, errors = _items(recursion, WeightVector, items)
        wall = perf_counter() - t0
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": _results(items, raws, errors),
    }
    if tracer is not None:
        out["restored"] = all(a is b for a, b in zip(before, spans.current_targets()))
        out["layers"] = tracer.layers()
        out["counts"] = dict(tracer.counts)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return out


def verify(job: dict) -> dict:
    from flatvol import recursion
    from flatvol.graphs import WeightVector

    raws, errors = _items(recursion, WeightVector, job["items"], reverse=True)
    return {"results": _results(job["items"], raws, errors)}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(job["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mode = job["mode"]
    if mode == "pass":
        out = timed_pass(job)
    elif mode == "verify":
        out = verify(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
