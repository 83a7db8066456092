"""Per-layer spans recorded from outside the engine.

Entering a `Tracer` (`with Tracer() as t:`) replaces each public function in `TARGETS` with a
wrapper, in the module namespace where its caller looks it up.  Every
call records one span (name, start, end, parent) in flat arrays, plus a
few counts taken from the arguments and the result.  Leaving it puts the
original functions back.  A span's self time is its duration minus
the durations of its direct children; calls are strictly nested, because
the engine runs on one thread.
"""

from __future__ import annotations

import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("flatvol.recursion", "evaluate", "recursion.evaluate"),
    ("flatvol.recursion", "enumerate_star_graphs", "graphs.enumerate_star_graphs"),
    ("flatvol.recursion", "flatten", "graphs.flatten"),
    ("flatvol.recursion", "integrate", "polytopes.integrate"),
    ("flatvol.graphs", "enumerate_star_graphs", "graphs.enumerate_star_graphs"),
    ("flatvol.graphs", "kernel_A", "kernels.kernel_A"),
    ("flatvol.polytopes", "parametrize", "polytopes.parametrize"),
    ("flatvol.polytopes", "enumerate_vertices", "polytopes.enumerate_vertices"),
    ("flatvol.polytopes", "triangulate", "polytopes.triangulate"),
    ("flatvol.polytopes", "integrate_over_simplex", "polytopes.integrate_over_simplex"),
    ("flatvol.polytopes", "compose_affine", "exact.compose_affine"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_evaluate(c: Counter, args, kwargs, out) -> None:
    c["recursion.terms"] += len(out.terms)
    c["recursion.terms_nonzero"] += sum(1 for _, v in out.terms if v != 0)


def _count_flatten(c: Counter, args, kwargs, out) -> None:
    c["graphs.flatten.trees"] += len(out)


def _count_vertices(c: Counter, args, kwargs, out) -> None:
    exprs = _arg(args, kwargs, 0, "exprs")
    free = _arg(args, kwargs, 1, "free")
    c["polytopes.enumerate_vertices.bases"] += math.comb(len(exprs), len(free))
    c["polytopes.enumerate_vertices.full_dim"] += bool(out.full_dim)


def _count_triangulate(c: Counter, args, kwargs, out) -> None:
    c["polytopes.triangulate.simplices"] += len(out)


def _count_compose(c: Counter, args, kwargs, out) -> None:
    c["exact.compose_affine.terms_out"] += len(out.terms)


COUNTERS = {
    "recursion.evaluate": _count_evaluate,
    "graphs.flatten": _count_flatten,
    "polytopes.enumerate_vertices": _count_vertices,
    "polytopes.triangulate": _count_triangulate,
    "exact.compose_affine": _count_compose,
}


class Tracer:
    """Records spans around the `TARGETS` while installed."""

    def __init__(self) -> None:
        self.name_of = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        nid = SPAN_NAMES.index(name)
        count = COUNTERS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layers(self) -> dict[str, dict[str, float]]:
        """calls and self_s per span name (0 calls for a name never hit)."""
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for sid in range(len(name_of)):
            dur = end[sid] - start[sid]
            calls[name_of[sid]] += 1
            self_s[name_of[sid]] += dur
            p = parent[sid]
            if p >= 0:
                self_s[name_of[p]] -= dur
        return {
            name: {"calls": calls[i], "self_s": self_s[i]} for i, name in enumerate(SPAN_NAMES)
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.name_of)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{SPAN_NAMES[self.name_of[sid]]}"
                    f"\t{self.start[sid]!r}\t{self.end[sid]!r}\n"
                )


def current_targets() -> tuple:
    """The objects now bound at every TARGETS attribute, for identity checks."""
    return tuple(getattr(importlib.import_module(m), a) for m, a, _ in TARGETS)
