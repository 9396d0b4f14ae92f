"""Schedule records are named tuples that refuse what the dataclasses refused.

``Placement`` and ``Message`` were frozen dataclasses whose ``__post_init__``
checked their times.  They are now tuples cleared by one chained comparison,
with the old checks behind it for anything that comparison does not clear.
The old classes are frozen here as the reference: every bad value must raise
the same exception type with the same text, built directly or read from a
schedule document, and every good one must give the same fields.
"""

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field

import pytest

from repro.errors import ScheduleError, check_finite
from repro.graph import TaskGraph
from repro.machine import IDEAL, make_machine
from repro.sched import Message, Placement, Schedule
from repro.sched import schedule as schedule_module
from repro.sched import serialize
from repro.sched.serialize import schedule_from_dict, schedule_to_dict


@dataclass(frozen=True)
class OldPlacement:
    task: str
    proc: int
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ScheduleError(f"task {self.task!r}: negative start {self.start}")
        if self.finish < self.start:
            raise ScheduleError(
                f"task {self.task!r}: finish {self.finish} before start {self.start}"
            )
        check_finite(self.start, f"task {self.task!r}: start", ScheduleError)
        check_finite(self.finish, f"task {self.task!r}: finish", ScheduleError)


@dataclass(frozen=True)
class OldMessage:
    src_task: str
    dst_task: str
    var: str
    size: float
    src_proc: int
    dst_proc: int
    start: float
    finish: float
    route: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        src, dst = self.src_task, self.dst_task
        if self.finish < self.start:
            raise ScheduleError(f"message {src}->{dst}: finish before start")
        check_finite(self.start, f"message {src}->{dst}: start", ScheduleError)
        check_finite(self.finish, f"message {src}->{dst}: finish", ScheduleError)


BAD = [-1, -1.5, float("nan"), float("inf"), float("-inf"), 10**400, -10**400, "x", None]
GOOD = [0, 0.0, -0.0, 2, 2.5, 1e300, True]
#: (start, finish) pairs: each bad value on either side of a good one, and
#: a finish before its start.  A message may start before 0; a placement
#: may not.
TIMES = (
    [(bad, 3.0) for bad in BAD] + [(1.0, bad) for bad in BAD]
    + [(bad, bad) for bad in BAD] + [(2.0, 1.0), (2, 1), (10**400, 1.0), ("x", "y")]
)


def short(value) -> str:
    """A test id: an int past the float range is named by its size."""
    text = repr(value)
    return text if len(text) < 24 else f"{'-' if value < 0 else ''}{len(text.lstrip('-'))}-digit int"


def outcome(build, *args):
    """``("ok", fields)`` or ``("raises", type, text)``."""
    try:
        record = build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raises", type(exc), str(exc))
    names = ("task", "proc") if len(args) == 4 else ("src_task", "var", "size", "route")
    return ("ok", repr([getattr(record, name) for name in (*names, "start", "finish")]))


def message_args(start, finish):
    return ("a", "b", "x", 1.0, 0, 1, start, finish, (0, 1))


@pytest.mark.parametrize("start, finish", TIMES + [(s, f) for s in GOOD for f in GOOD], ids=short)
def test_a_placement_is_refused_as_the_dataclass_refused_it(start, finish):
    args = ("t", 0, start, finish)
    assert outcome(Placement, *args) == outcome(OldPlacement, *args)


@pytest.mark.parametrize("start, finish", TIMES + [(s, f) for s in GOOD for f in GOOD], ids=short)
def test_a_message_is_refused_as_the_dataclass_refused_it(start, finish):
    args = message_args(start, finish)
    assert outcome(Message, *args) == outcome(OldMessage, *args)


def test_keywords_and_the_default_route_build_the_same_message():
    message = Message(src_task="a", dst_task="b", var="x", size=1.0, src_proc=0,
                      dst_proc=1, start=0.0, finish=1.5)
    assert message.route == () and message == ("a", "b", "x", 1.0, 0, 1, 0.0, 1.5, ())


# --------------------------------------------------------------------- #
# the same values as fields of a schedule document
# --------------------------------------------------------------------- #
def _document() -> dict:
    graph = TaskGraph("g")
    graph.add_task("a", work=1.0)
    graph.add_task("b", work=1.0)
    graph.add_edge("a", "b", var="x", size=1.0)
    schedule = Schedule(graph, make_machine("full", 2, IDEAL), scheduler="hand")
    schedule.add("a", 0, 0.0, 1.0)
    schedule.add("b", 1, 5.0, 6.0)
    schedule.add_message(Message("a", "b", "x", 1.0, 0, 1, 1.0, 2.0, (0, 1)))
    return schedule_to_dict(schedule)


def _read(doc: dict, monkeypatch=None, old=False):
    if old:
        monkeypatch.setattr(schedule_module, "Placement", OldPlacement)
        monkeypatch.setattr(serialize, "Message", OldMessage)
    try:
        schedule = schedule_from_dict(doc)
    except Exception as exc:  # noqa: BLE001
        return ("raises", type(exc), str(exc))
    finally:
        if old:
            monkeypatch.undo()
    return ("ok", [tuple(vars(e).values()) if old else tuple(e) for e in schedule],
            [tuple(vars(m).values()) if old else tuple(m) for m in schedule.messages])


@pytest.mark.parametrize("kind", ["placements", "messages"])
@pytest.mark.parametrize("start, finish", TIMES, ids=short)
def test_a_document_field_is_refused_as_before(monkeypatch, kind, start, finish):
    doc = _document()
    entry = doc[kind][-1]
    entry["start"], entry["finish"] = start, finish
    assert _read(doc) == _read(doc, monkeypatch, old=True)


def test_a_good_document_reads_as_before(monkeypatch):
    doc = _document()
    assert _read(doc) == _read(doc, monkeypatch, old=True)


# --------------------------------------------------------------------- #
# what a record is
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("record", [
    Placement("t", 0, 1.0, 2.5), Message("a", "b", "x", 1.0, 0, 1, 1.0, 2.0, (0, 1)),
])
def test_records_are_immutable_hashable_tuples(record):
    assert not dataclasses.is_dataclass(record)
    assert isinstance(record, tuple) and record == tuple(record)
    assert hash(record) == hash(tuple(record))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.start = 0.5
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(copy.copy(record)) is type(record)


def test_replace_runs_the_checks():
    placement = Placement("t", 0, 1.0, 2.5)
    assert placement._replace(finish=4.0) == ("t", 0, 1.0, 4.0)
    with pytest.raises(ScheduleError, match="negative start"):
        placement._replace(start=-1.0)
    message = Message("a", "b", "x", 1.0, 0, 1, 1.0, 2.0)
    with pytest.raises(ScheduleError, match="finish before start"):
        message._replace(finish=0.5)
