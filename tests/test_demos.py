"""The narrative demos print byte for byte what tests/golden/demos holds.

Each demo runs in its own interpreter with the checkout's src on its path.
Regenerate a golden file only on an intentional change to a demo's output:

    PYTHONPATH=src python3 demos/NAME.py > tests/golden/demos/NAME.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    assert out == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
