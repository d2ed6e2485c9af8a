"""Value semantics of the normal form `NF` and of the result records.

`NF` is an immutable value equal only to another `NF`.  The records are
named tuples: their fields, defaults and `repr` text are pinned here, and
each compares equal to the plain tuple of its fields."""

import pytest

from monoidkit.congruence import YSequence
from monoidkit.elements import PartialMap, Partition
from monoidkit.ideals import MeetResult
from monoidkit.order import OrderVerdict
from monoidkit.pmonoid import (
    NF,
    NF_IDENTITY,
    PUNCTURE,
    SHIFT_DOWN,
    SHIFT_UP,
    AnnihilatorVerdict,
    ChainReport,
    chain_search,
    nf_mul,
    nf_of_word,
)
from monoidkit.verify import SuiteResult


def test_nf_is_immutable():
    nf = NF((1, 4), -2)
    for name in ("excluded", "shift", "other"):
        with pytest.raises(AttributeError):
            setattr(nf, name, ())
    assert nf.excluded == (1, 4) and nf.shift == -2


@pytest.mark.parametrize(
    "value", [NF((1, 4), -2), NF_IDENTITY, PartialMap((2, None, 2)), Partition(2, [[1, -2], [2], [-1]])], ids=repr
)
def test_fields_cannot_be_deleted(value):
    """`del` is refused like assignment, so the value still hashes and prints."""
    before = (hash(value), str(value), repr(value))
    for field in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, field)
    assert (hash(value), str(value), repr(value)) == before


def test_nf_equals_only_an_nf():
    assert NF((), 0) != ((), 0)
    assert not NF((), 0) == ((), 0)
    assert NF((0,), 0) != (0, 0)
    assert NF((), 0) == NF_IDENTITY and NF((), 0) != SHIFT_UP


def test_equal_nfs_hash_equal():
    same = [NF((-1, 0), 1), NF._from_internal((-1, 0), 1), nf_of_word("ege"), nf_mul(PUNCTURE, nf_of_word("ge"))]
    assert len(set(same)) == 1
    assert len({hash(x) for x in same}) == 1
    assert {NF_IDENTITY, SHIFT_UP, SHIFT_DOWN, PUNCTURE, NF((), 0)} == {NF_IDENTITY, SHIFT_UP, SHIFT_DOWN, PUNCTURE}


def test_nf_has_no_addition_or_order():
    with pytest.raises(TypeError):
        SHIFT_UP + SHIFT_UP
    with pytest.raises(TypeError):
        SHIFT_UP < PUNCTURE


@pytest.mark.parametrize("a", [NF_IDENTITY, SHIFT_UP, SHIFT_DOWN, PUNCTURE, NF((-3, 2, 7), 5)])
def test_a_product_by_the_identity_is_its_left_operand(a):
    assert nf_mul(a, NF_IDENTITY) is a
    assert nf_mul(NF_IDENTITY, a) is a


STEP = (NF_IDENTITY, PUNCTURE, SHIFT_UP)

RECORDS = [
    (AnnihilatorVerdict, ("member", "n", "side"), {"n": None, "side": None},
     (True, 3, "g"), "AnnihilatorVerdict(member=True, n=3, side='g')"),
    (ChainReport, ("n", "y_index", "reached", "explored", "depth"), {}, (3, 2, False, 2, None),
     "ChainReport(n=3, y_index=2, reached=False, explored=2, depth=None)"),
    (YSequence, ("start", "end", "steps"), {}, (SHIFT_UP, PUNCTURE, (STEP,)),
     "YSequence(start=NF({}, +1), end=NF({0}, +0), steps=((NF({}, +0), NF({0}, +0), NF({}, +1)),))"),
    (OrderVerdict, ("holds", "witness"), {"witness": None}, (True, PartialMap([1, None])),
     "OrderVerdict(holds=True, witness=PartialMap([1,_]))"),
    (MeetResult, ("generator", "empty"), {}, (PartialMap([2, 2]), False),
     "MeetResult(generator=PartialMap([2,2]), empty=False)"),
    (SuiteResult, ("name", "ok", "detail", "seconds"), {}, ("nc", True, "ok", 0.25),
     "SuiteResult(name='nc', ok=True, detail='ok', seconds=0.25)"),
]


@pytest.mark.parametrize("cls, fields, defaults, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_fields_defaults_and_repr(cls, fields, defaults, values, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*values)
    assert repr(record) == text
    assert record == cls(**dict(zip(fields, values))) == values
    assert tuple(getattr(record, name) for name in fields) == values
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_defaults_and_a_searched_report():
    assert repr(AnnihilatorVerdict(False)) == "AnnihilatorVerdict(member=False, n=None, side=None)"
    assert repr(OrderVerdict(False)) == "OrderVerdict(holds=False, witness=None)"
    assert repr(MeetResult.nothing()) == "MeetResult(generator=None, empty=True)"
    assert chain_search(3) == ChainReport(3, 2, False, 2, None)
    assert SuiteResult("nc", True, "ok", 0.25).line() == "PASS nc: ok (0.25s)"


@pytest.mark.parametrize("steps", [(), (STEP,), (STEP, STEP), (STEP,) * 3, (STEP,) * 4])
def test_a_y_sequence_has_the_length_of_its_steps(steps):
    seq = YSequence(SHIFT_UP, PUNCTURE, steps)
    assert len(seq) == len(steps)
    assert seq._replace(end=SHIFT_DOWN) == YSequence(SHIFT_UP, SHIFT_DOWN, steps)


def test_a_meet_result_is_refused_on_replace_too():
    found = MeetResult.found(PartialMap([1, 1]))
    with pytest.raises(ValueError, match="exactly one of generator/empty must be set"):
        found._replace(empty=True)
    assert found._replace(generator=PartialMap([2, 2])) == MeetResult.found(PartialMap([2, 2]))
