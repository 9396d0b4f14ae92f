"""Server-side observability: request counters and latency percentiles.

Everything the daemon can answer about itself lives here.  Three layers
feed ``/metrics``:

* **server counters** — requests by endpoint and status, coalesce/cache
  dispositions, rejections, timeouts, worker crashes, live queue depth;
* **latency windows** — a bounded ring of recent per-endpoint latencies,
  reported as ``count``/``p50``/``p95`` (sliding-window percentiles, the
  way a scientist actually reads "is it still instant?");
* **work counters** — each op's work-ledger and service deltas reported
  back by whichever process ran it, summed here so scheduler runs are
  visible even when they happened three worker processes away.

All mutators take the lock: the daemon itself is single-threaded asyncio,
but tests read snapshots from other threads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

#: Per-endpoint sliding-window size; at 1k req/s this is the last ~2 s,
#: at interactive rates the last several minutes.
LATENCY_WINDOW = 2048

#: The request dispositions an access-log line / counter may carry.
DISPOSITIONS = (
    "computed",    # a fresh run on a worker (or inline executor)
    "cache",       # served from the daemon's response cache
    "coalesced",   # shared another in-flight request's computation
    "rejected",    # bounced by backpressure (503)
    "timeout",     # exceeded the per-request budget (504)
    "crashed",     # its worker died (500)
    "error",       # op raised (400/500)
    "internal",    # /healthz, /metrics
)


class LatencyWindow:
    """Sliding window of the most recent latencies with exact percentiles."""

    def __init__(self, capacity: int = LATENCY_WINDOW):
        self._ring: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def observe(self, ms: float) -> None:
        self._ring.append(ms)
        self.count += 1

    def percentile(self, p: float) -> float:
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        rank = max(0, min(len(ordered) - 1, round(p * (len(ordered) - 1))))
        return ordered[rank]

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "p50": round(self.percentile(0.50), 3),
            "p95": round(self.percentile(0.95), 3),
        }


class ServerMetrics:
    """All daemon counters, aggregated and snapshot-able."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total = 0
        self.by_endpoint: dict[str, int] = {}
        self.by_status: dict[str, int] = {}
        self.by_disposition: dict[str, int] = {d: 0 for d in DISPOSITIONS}
        self.bad_requests = 0
        self.disconnects = 0
        self.in_flight = 0
        self.queue_depth = 0
        self._latency: dict[str, LatencyWindow] = {}
        self._work: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def observe(self, endpoint: str, status: int, ms: float,
                disposition: str) -> None:
        """Record one finished request."""
        with self._lock:
            self.requests_total += 1
            self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
            self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
            if disposition in self.by_disposition:
                self.by_disposition[disposition] += 1
            if status == 400:
                self.bad_requests += 1
            window = self._latency.get(endpoint)
            if window is None:
                window = self._latency[endpoint] = LatencyWindow()
            window.observe(ms)

    def fold_work(self, counters: dict[str, Any]) -> None:
        """Fold one op's work-counter deltas into the aggregate."""
        with self._lock:
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    self._work[name] = self._work.get(name, 0) + value

    def note_disconnect(self) -> None:
        with self._lock:
            self.disconnects += 1

    def enter(self, queued: int) -> None:
        with self._lock:
            self.in_flight += 1
            self.queue_depth = queued

    def exit(self, queued: int) -> None:
        with self._lock:
            self.in_flight = max(0, self.in_flight - 1)
            self.queue_depth = queued

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            by = self.by_disposition
            return {
                "requests_total": self.requests_total,
                "by_endpoint": dict(self.by_endpoint),
                "by_status": dict(self.by_status),
                "by_disposition": dict(by),
                "coalesce_hits": by["coalesced"],
                "cache_hits": by["cache"],
                "computed": by["computed"],
                "rejected": by["rejected"],
                "timeouts": by["timeout"],
                "worker_crashes": by["crashed"],
                "bad_requests": self.bad_requests,
                "disconnects": self.disconnects,
                "in_flight": self.in_flight,
                "queue_depth": self.queue_depth,
                "latency_ms": {
                    endpoint: window.as_dict()
                    for endpoint, window in sorted(self._latency.items())
                },
                "work": {k: round(v, 3) for k, v in sorted(self._work.items())},
            }
