"""The immutable records: value semantics, validation, and a cheap import.

Every record is a `__slots__` class on `core.Record`.  These tests pin what
callers rely on: equality and hashing by fields, the constructor-style
repr, refusal of assignment and deletion, pickling and copying, and the
constructor checks with their messages.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from basicsets.core import Axis, PointSet, Record, SliceId
from basicsets.decide import Certificate, Decomposition, Verdict, Witness
from basicsets.generators import ClosedLightning
from basicsets.search import GridSpec

SRC = Path(__file__).resolve().parents[1] / "src"
SQUARE = ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0))


def _records():
    """(record, an equal one built by keyword, one that differs, exact repr)."""
    cert = Certificate((2, -1, -1, -1, 1))
    return [
        (PointSet(3, ((0, 0, 0), (1, 1, 1)), ((0, 1),) * 3),
         PointSet(dim=3, points=((0, 0, 0), (1, 1, 1)), values=((0, 1),) * 3),
         PointSet(3, ((0, 0, 0),), ((0,),) * 3),
         "PointSet(dim=3, points=((0, 0, 0), (1, 1, 1)), values=((0, 1), (0, 1), (0, 1)))"),
        (cert, Certificate(weights=(2, -1, -1, -1, 1)), Certificate((1, -1)),
         "Certificate(weights=(2, -1, -1, -1, 1))"),
        (Witness(cert, Fraction(1, 2)), Witness(certificate=cert, pairing=Fraction(1, 2)),
         Witness(cert, Fraction(1)),
         "Witness(certificate=Certificate(weights=(2, -1, -1, -1, 1)), "
         "pairing=Fraction(1, 2))"),
        (Verdict(False, cert), Verdict(basic=False, certificate=cert), Verdict(True),
         "Verdict(basic=False, certificate=Certificate(weights=(2, -1, -1, -1, 1)))"),
        (Verdict(True), Verdict(basic=True, certificate=None), Verdict(False, cert),
         "Verdict(basic=True, certificate=None)"),
        (GridSpec(3, 3, 2), GridSpec(nx=3, ny=3, nz=2), GridSpec(3, 2, 3),
         "GridSpec(nx=3, ny=3, nz=2)"),
        (ClosedLightning(SliceId(Axis.Z, 0), SQUARE),
         ClosedLightning(slice_id=SliceId(Axis.Z, 0), points=SQUARE),
         ClosedLightning(SliceId(Axis.Z, 0), SQUARE[1:] + SQUARE[1:2]),
         "ClosedLightning(slice_id=SliceId(axis=<Axis.Z: 2>, value=0), "
         "points=((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0)))"),
    ]


RECORDS = _records()
IDS = [repr(r[0]).split("(", 1)[0] for r in RECORDS]


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_equality_hash_and_repr_go_by_the_fields(record, same, other, text):
    assert isinstance(record, Record)
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other
    assert record != tuple(getattr(record, name) for name in record.__slots__)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", [r[0] for r in RECORDS], ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = record.__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match="immutable record"):
        setattr(record, name, before)
    with pytest.raises(AttributeError, match="immutable record"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("record", [r[0] for r in RECORDS], ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_decomposition_compares_its_tables_and_is_unhashable():
    tables = ({0: Fraction(1)}, {1: Fraction(-3, 2)})
    d = Decomposition(tables)
    assert d == Decomposition(tables=({0: Fraction(1)}, {1: Fraction(-3, 2)}))
    assert d != Decomposition(({0: Fraction(1)}, {1: Fraction(0)}))
    assert repr(d) == "Decomposition(tables=({0: Fraction(1, 1)}, {1: Fraction(-3, 2)}))"
    with pytest.raises(TypeError):
        hash(d)
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert twin == d
    assert copy.deepcopy(d).tables[0] is not tables[0]
    with pytest.raises(AttributeError):
        d.tables = ()


@pytest.mark.parametrize("build, message", [
    (lambda: Certificate(()), "must not all be zero"),
    (lambda: Certificate((0, 0, 0)), "must not all be zero"),
    (lambda: Certificate((2, -2, 4)), "must have gcd 1"),
    (lambda: Verdict(True, Certificate((1, -1))), "a basic verdict carries no certificate"),
    (lambda: Verdict(False), "a non-basic verdict requires a certificate"),
    (lambda: GridSpec(0, 3, 3), "grid extents must be positive"),
    (lambda: GridSpec(3, 3, -1), "grid extents must be positive"),
    (lambda: ClosedLightning(SliceId(Axis.Z, 0), SQUARE[:-1]),
     "sequence is not a closed lightning"),
])
def test_constructors_check_their_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_the_library_import_loads_no_dataclasses():
    probe = ("import sys, basicsets.cli, basicsets.generators; "
             "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
