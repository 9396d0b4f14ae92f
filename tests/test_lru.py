"""The one LRU, the one counter set and the work ledger (:mod:`repro.lru`).

A Hypothesis state machine drives :class:`LRU` against a brute-force list
model that also predicts ``hits`` / ``misses`` / ``evictions``; a thread
stress pins exact totals; an AST sweep pins that nothing else under
``src/repro`` hand-rolls either idiom again, and that every process-wide
counter is a ledger declaration.
"""

import ast
import threading
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import pytest

from repro.lru import LEDGER, LRU, Counters

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

KEYS = st.sampled_from("abcdef")
#: Up to 14 bytes: larger than the byte-bounded machine's whole 10-byte bound.
VALUES = st.binary(min_size=0, max_size=14)


class LRUModel(RuleBasedStateMachine):
    """``self.model`` is the truth: ``(key, value)`` pairs, oldest first."""

    max_entries = 3
    max_bytes: int | None = None

    def __init__(self):
        super().__init__()
        self.lru = LRU(self.max_entries, max_bytes=self.max_bytes)
        self.model: list[tuple[str, bytes]] = []
        self.hits = self.misses = self.evictions = 0

    def _find(self, key):
        return next((pair for pair in self.model if pair[0] == key), None)

    def _over(self) -> bool:
        if len(self.model) > self.max_entries:
            return True
        held = sum(len(v) for _, v in self.model)
        return self.max_bytes is not None and held > self.max_bytes

    def _model_get(self, key):
        pair = self._find(key)
        if pair is None:
            self.misses += 1
            return None
        self.hits += 1
        self.model.remove(pair)
        self.model.append(pair)
        return pair[1]

    def _model_put(self, key, value) -> int:
        pair = self._find(key)
        if pair is not None:
            self.model.remove(pair)
        if self.max_bytes is not None and len(value) > self.max_bytes:
            return 0  # refused: only the stale value under the key goes
        self.model.append((key, value))
        evicted = 0
        while self._over():
            self.model.pop(0)
            evicted += 1
        self.evictions += evicted
        return evicted

    @rule(key=KEYS)
    def get(self, key):
        assert self.lru.get(key) == self._model_get(key)

    @rule(key=KEYS)
    def peek(self, key):
        pair = self._find(key)
        assert self.lru.peek(key) == (pair[1] if pair else None)

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        assert self.lru.put(key, value) == self._model_put(key, value)

    @rule(key=KEYS)
    def pop(self, key):
        pair = self._find(key)
        if pair is not None:
            self.model.remove(pair)
        assert self.lru.pop(key) == (pair[1] if pair else None)

    @rule(key=KEYS, value=VALUES)
    def get_or_compute(self, key, value):
        expected = self._model_get(key)
        if expected is None:
            self._model_put(key, value)
            expected = value
        assert self.lru.get_or_compute(key, lambda: value) == expected

    @rule()
    def clear(self):
        assert self.lru.clear() == len(self.model)
        self.model.clear()  # entries go, the lifetime counters stay

    @invariant()
    def agrees_with_the_model(self):
        assert self.lru.keys() == [k for k, _ in self.model]
        assert len(self.lru) == len(self.model) <= self.max_entries
        assert (self.lru.hits, self.lru.misses, self.lru.evictions) == (
            self.hits, self.misses, self.evictions
        )
        if self.max_bytes is not None:
            assert self.lru.bytes == sum(len(v) for _, v in self.model)
            assert self.lru.bytes <= self.max_bytes


class ByteBoundedLRUModel(LRUModel):
    max_entries = 4
    max_bytes = 10


SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestEntryBound = LRUModel.TestCase
TestEntryBound.settings = SETTINGS
TestByteBound = ByteBoundedLRUModel.TestCase
TestByteBound.settings = SETTINGS


def test_an_oversize_value_and_a_same_key_overwrite():
    lru = LRU(4, max_bytes=10)
    lru.put("k", bytes(8))
    assert lru.put("k", bytes(3)) == 0 and lru.bytes == 3  # overwrite: no leak
    # Over the whole bound: refused, and nothing that fits is flushed.
    assert lru.put("huge", bytes(11)) == 0
    assert lru.keys() == ["k"] and lru.bytes == 3 and lru.evictions == 0
    # A stale value under the refused key is dropped, not kept.
    assert lru.put("k", bytes(11)) == 0
    assert len(lru) == 0 and lru.bytes == 0 and lru.evictions == 0


def test_a_zero_bound_keeps_nothing_and_a_negative_one_is_refused():
    """A negative bound used to empty the mapping and then raise
    ``KeyError`` from ``popitem`` inside :meth:`LRU.put`."""
    # A zero entry bound evicts the value; a zero byte bound refuses it.
    for bounds, evicted in (((0, None), 1), ((4, 0), 0)):
        lru = LRU(*bounds)
        assert lru.put("k", b"v") == evicted and len(lru) == 0
    for bounds in ((-1, None), (4, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            LRU(*bounds)


def test_eight_threads_exact_totals():
    lru = LRU(8)
    counters = Counters(ops=0, weight=0.0)
    n_threads, rounds = 8, 2000

    def hammer(seed: int) -> None:
        for i in range(rounds):
            key = (seed * 7 + i) % 12
            lru.get_or_compute(key, lambda: key)
            counters.bump("ops")
            counters.bump("weight", 0.5)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * rounds
    assert lru.hits + lru.misses == total
    # every miss inserts one entry; what is no longer held was evicted
    # (racing misses on one key overwrite instead, hence <=)
    assert len(lru) == 8 and lru.evictions <= lru.misses - 8
    assert all(lru.peek(key) == key for key in lru.keys())
    assert counters.snapshot() == {"ops": total, "weight": total / 2}


def test_counters_are_read_by_difference():
    counters = Counters(ops=0)
    before = counters.snapshot()
    counters.bump("ops", 3)
    counters.declare(late=0.0)
    counters.bump("late", 0.5)
    assert counters.since(before) == {"ops": 3, "late": 0.5}
    assert not hasattr(counters, "reset")


def test_a_name_declared_twice_is_refused():
    counters = Counters(ops=0)
    with pytest.raises(ValueError, match="ops"):
        counters.declare(ops=0)
    import repro.sched.core  # noqa: F401 — declares the kernel counters

    with pytest.raises(ValueError, match="kernel_builds"):
        LEDGER.declare(kernel_builds=0)
    assert LEDGER.snapshot()["kernel_builds"] >= 0


def test_no_other_module_hand_rolls_an_lru_or_a_counter_global():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "_ZERO_COUNTERS" not in text, path
        if path.name == "lru.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                assert name != "OrderedDict", f"{path}:{node.lineno}"
                # process-wide counters are LEDGER declarations; the one
                # other set is ScheduleService's per-instance counts
                if name == "Counters":
                    assert path.relative_to(SRC).as_posix() == "sched/service.py", (
                        f"{path}:{node.lineno}"
                    )
