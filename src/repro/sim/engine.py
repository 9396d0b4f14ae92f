"""A small discrete-event simulation engine.

Banger's target machines were real hypercubes; ours is this engine — events
are scheduled at simulated times and processed in time order (FIFO among
simultaneous events, so runs are deterministic).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimError


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventEngine:
    """A priority queue of timed callbacks."""

    def __init__(self) -> None:
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at simulated ``time`` (not before ``now``)."""
        if time < self.now - 1e-9:
            raise SimError(f"cannot schedule event at {time} before now={self.now}")
        heapq.heappush(self._queue, _Entry(max(time, self.now), next(self._seq), action))

    def run(self, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains; returns the final time."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            self.now = entry.time
            entry.action()
            self.processed += 1
            if self.processed > max_events:
                raise SimError(f"simulation exceeded {max_events} events")
        return self.now
