"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimError
from repro.sim import EventEngine


class TestEventEngine:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        log = []
        engine.schedule(5.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(9.0, lambda: log.append("c"))
        final = engine.run()
        assert log == ["a", "b", "c"]
        assert final == 9.0

    def test_fifo_among_simultaneous(self):
        engine = EventEngine()
        log = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: log.append(i))
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_events_can_schedule_events(self):
        engine = EventEngine()
        log = []

        def first():
            log.append(("first", engine.now))
            engine.schedule(engine.now + 2.0,
                            lambda: log.append(("second", engine.now)))

        engine.schedule(1.0, first)
        engine.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_now_advances(self):
        engine = EventEngine()
        seen = []
        engine.schedule(4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_cannot_schedule_in_past(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: engine.schedule(1.0, lambda: None))
        with pytest.raises(SimError, match="before now"):
            engine.run()

    def test_event_cap(self):
        engine = EventEngine()

        def loop():
            engine.schedule(engine.now + 1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimError, match="exceeded"):
            engine.run(max_events=100)

    def test_empty_run(self):
        assert EventEngine().run() == 0.0
