"""The result records are immutable NamedTuples, and importing the CLI stays light."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toughseq
from toughseq.checkers import Verdict
from toughseq.conditions import ChvatalCondition, condition_from_json
from toughseq.graphs import ToughnessResult
from toughseq.sequences import DegreeSequence
from toughseq.subposet import GroupStat, SinkReport


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, so nothing the test session imported can hide a regression,
    # and without site, whose .pth files may load inspect before any user code runs
    src = str(Path(toughseq.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import toughseq.cli; "
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "toughseq.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


SEQ = DegreeSequence((1, 1, 2))
COND = ChvatalCondition(3, ((1, 2),))
GROUP = GroupStat(1, 2, 2, 4)
RECORDS = [
    (ChvatalCondition, (3, ((1, 2),)), {"n": 3, "clauses": ((1, 2),)}),
    (Verdict, (False, 2, "ii", SEQ, (1, 1, 1), None, (COND,)),
     {"declared": False, "failing_index": 2, "failing_rule": "ii", "blocking_sequence": SEQ,
      "blocking_shape": (1, 1, 1), "blocking_graph": None, "condition_set": (COND,)}),
    (ToughnessResult, (Fraction(1, 2), (1,), 2),
     {"value": Fraction(1, 2), "witness_cutset": (1,), "witness_components": 2}),
    (GroupStat, (1, 2, 2, 4), {"j": 1, "count": 2, "expected_count": 2, "reduced_total": 4}),
    (SinkReport, (2, 9, 3, 2, (GROUP,), (SEQ,), Fraction(9, 5), True, None),
     {"k": 2, "n": 9, "m": 3, "family_size": 2, "groups": (GROUP,), "sinks": (SEQ,),
      "bound": Fraction(9, 5), "claim2": True, "claim3": None}),
]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_value_tuples(cls, args, fields):
    rec = cls(*args)
    assert rec == cls(**fields) and hash(rec) == hash(cls(**fields))
    assert cls._fields == tuple(fields)
    assert rec._asdict() == fields
    assert rec == tuple(fields.values()) and tuple(rec) == args  # unpacks like a plain tuple
    assert rec != args[:-1] + ("other",)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(AttributeError):
        delattr(rec, cls._fields[-1])


def test_record_reprs_and_defaults():
    assert repr(COND) == "ChvatalCondition(n=3, clauses=((1, 2),))"
    assert str(COND) == "d1>=2"
    assert Verdict(True) == Verdict(declared=True) == (True, None, None, None, None, None, ())
    assert repr(Verdict(True)) == (
        "Verdict(declared=True, failing_index=None, failing_rule=None, blocking_sequence=None, "
        "blocking_shape=None, blocking_graph=None, condition_set=())")
    assert Verdict(True).shape_text() is None
    assert Verdict(False, blocking_shape=(2, 2, 2)).shape_text() == "K_2 + (~K_2 u K_2)"
    report = SinkReport(*RECORDS[-1][1])
    assert (report.sink_count, report.bound_applies, report.bound_holds, report.counts_match) == (
        1, False, None, True)


def test_condition_normalizes_and_validates():
    cond = ChvatalCondition(5, [[1, 2], [3, 4]])
    assert cond.clauses == ((1, 2), (3, 4)) and type(cond.clauses) is tuple
    assert all(type(c) is tuple and all(type(x) is int for x in c) for c in cond.clauses)
    assert cond == ChvatalCondition(n=5, clauses=iter([(1, 2), (3, 4)]))
    assert hash(cond) == hash((5, ((1, 2), (3, 4))))
    for n, clauses, message in (
            (0, (), "condition length n must be >= 1"),
            (3, ((4, 1),), "clause index 4 out of range 1..3"),
            (3, ((1, 0),), "clause threshold 0 out of range 1..3"),
            (3, ((2, 1), (2, 2)), "clause indices must strictly increase"),
            (3, ((1, 2), (2, 1)), "clause thresholds must be nondecreasing")):
        with pytest.raises(ValueError) as exc:
            ChvatalCondition(n, clauses)
        assert str(exc.value) == message
    # n and every clause entry must be integers: nothing is truncated or parsed
    for n, clauses in ((3.5, ()), (3, ((1.9, 2.5),)), (3, ((1, 2.0),)), ("3", ()),
                       (3, (("2", 2),)), (Fraction(3), ()), (3, ((1, Fraction(2)),))):
        with pytest.raises(TypeError):
            ChvatalCondition(n, clauses)
        with pytest.raises(TypeError):
            condition_from_json({"n": n, "clauses": clauses})
    # JSON booleans are not integers either, though the constructor would take them
    for n, clauses in ((True, [[True, True]]), (True, []), (3, [[True, 2]]), (3, [[1, False]])):
        with pytest.raises(TypeError):
            condition_from_json({"n": n, "clauses": clauses})
    assert condition_from_json({"n": 5, "clauses": [[1, 2], [3, 4]]}) == cond
    # _replace rebuilds through the same checks
    assert cond._replace(n=4) == ChvatalCondition(4, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="clause index 3 out of range 1..2"):
        cond._replace(n=2)
