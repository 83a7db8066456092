"""Guard for the benchmark's traced layers.

perfbench/spans.py wraps engine functions by (module, attribute) name.  A
refactor that moves or renames one of them would silently zero its layer
in the traced report, so every target must resolve and be hit.
"""

import importlib
import pathlib
import types
from fractions import Fraction

from flatvol.graphs import WeightVector

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written under perfbench/
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), mod.__dict__)
    return mod


def test_span_targets_resolve_and_fire():
    spans = _load_spans()
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)

    from flatvol import recursion

    # genus 2 at (1/3, 11/3) keeps a tree with a free coordinate once its
    # leaf blocks are integrated in closed form, so every layer runs
    before = spans.current_targets()
    with spans.Tracer() as tracer:
        fv = recursion.evaluate(WeightVector(2, (Fraction(1, 3), Fraction(11, 3))))
    assert all(a is b for a, b in zip(before, spans.current_targets()))
    assert fv.value == Fraction(1, 2187)
    layers = tracer.layers()
    silent = [name for name, row in layers.items() if row["calls"] == 0]
    assert silent == []
    # the compose_affine span is the per-simplex pullback: one call per simplex
    pullbacks = layers["exact.compose_affine"]["calls"]
    assert pullbacks == layers["polytopes.integrate_over_simplex"]["calls"]
    assert pullbacks == tracer.counts["polytopes.triangulate.simplices"]
