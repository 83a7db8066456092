"""The engine's records: value semantics, and what `import flatvol` loads."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flatvol.exact import MultiPoly
from flatvol.graphs import OuterVertex, StarGraph, WeightVector
from flatvol.kernels import DEFAULT_CONVENTION, ConventionFlags
from flatvol.polytopes import Block
from flatvol.recursion import evaluate

ROOT = Path(__file__).resolve().parent.parent


# one record of each type, built afresh at every call, with its field names
RECORDS = {
    "WeightVector": (
        lambda: WeightVector(1, (Fraction(3, 2), Fraction(1, 2))),
        ("genus", "entries"),
    ),
    "OuterVertex": (lambda: OuterVertex(1, 2, (3,)), ("genus", "edges", "legs")),
    "StarGraph": (
        lambda: StarGraph(0, (1, 2), (OuterVertex(0, 1, (3, 4)),), 1),
        ("genus0", "legs0", "outer", "i0"),
    ),
    "ConventionFlags": (
        lambda: ConventionFlags("printed", "prefactor"),
        ("s_exponent", "term_sign"),
    ),
    "Block": (lambda: Block((1, 2), MultiPoly.one()), ("vars", "level")),
    "FlatValue": (
        lambda: evaluate(WeightVector(0, (Fraction(1, 3),) * 3)),
        ("alpha", "i0", "convention", "value", "terms"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    make, fields = RECORDS[name]
    rec = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


def test_convention_defaults_and_reprs():
    assert ConventionFlags() == DEFAULT_CONVENTION
    assert repr(DEFAULT_CONVENTION) == "ConventionFlags(s_exponent='shifted', term_sign='prefactor')"
    assert (
        repr(WeightVector(1, (Fraction(3, 2), Fraction(1, 2))))
        == "WeightVector(genus=1, entries=(Fraction(3, 2), Fraction(1, 2)))"
    )
    # entries of any rational type become a tuple of Fractions
    entries = WeightVector(1, [2, 0.5, Fraction(1, 2)]).entries
    assert entries == (2, Fraction(1, 2), Fraction(1, 2))
    assert type(entries) is tuple and all(type(e) is Fraction for e in entries)


_STARTUP = """
import sys
import flatvol
print(sorted(m for m in ("dataclasses", "flatvol.validate") if m in sys.modules))
from flatvol import ValidationReport
import flatvol.validate as v
print(ValidationReport is v.ValidationReport, flatvol.run_validation is v.run_validation)
"""


def test_import_loads_neither_dataclasses_nor_validate():
    # a fresh interpreter, since pytest itself has imported dataclasses here;
    # -S keeps site hooks from loading modules flatvol does not ask for
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    assert out.decode().splitlines() == ["[]", "True True"]
