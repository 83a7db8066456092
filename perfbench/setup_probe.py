"""Set-up probe: time `import flatvol` and the base case in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir>

Prints one JSON line.  Only builtin modules are loaded before the clock
starts, so the time includes every import the engine needs.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fractions import Fraction  # noqa: E402

import flatvol  # noqa: E402

fv = flatvol.evaluate(flatvol.WeightVector(0, (Fraction(1, 3),) * 3))
dt = time.perf_counter() - t0

import json  # noqa: E402

print(json.dumps({"setup_s": dt, "ok": fv.value == 1, "value": str(fv.value)}))
