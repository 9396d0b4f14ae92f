"""How fast the host is running, measured while the benchmark runs.

The sandbox this benchmark runs in is not quiet: the same CPU-bound work,
repeated back to back, takes between 1x and 2x its best time for seconds to
minutes at a stretch, with no steal time reported and CPU time equal to
wall time — the host itself executes slower.  Two sets of runs of the same
code taken minutes apart then differ by more than any bound worth having.

So every run measures the host beside the workload: one process pinned to
each CPU repeats a small fixed computation every 50 ms and records the CPU
time it took.  CPU time, not wall time, so that waiting for a busy CPU does
not count — only how fast the CPU executed.  ``speed`` is the reference
time of that computation divided by the median time seen; the time-based
end-to-end metrics are reported at speed 1.0 (latency and set-up multiplied
by the speed seen, throughput divided by it) and the raw readings stay
available as ``client.*`` per-layer metrics.  Over ten seeds this took the
inter-quartile spread of latency and throughput from 16-25 % of the median
to 5-12 %.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import time
from typing import Any

#: CPU seconds one burst took on the 2-CPU sandbox the baseline was recorded
#: on (median over forty runs with a workload running beside it).  Only a
#: scale: it makes the corrected figures read like that sandbox's raw ones.
REFERENCE_BURST_S = 0.0019

INTERVAL_S = 0.05


def burst() -> float:
    """CPU seconds for a fixed, allocation-heavy piece of pure Python.

    Dicts, lists, floats, string keys and a JSON round trip: the mix the
    program under test is made of, so that whatever slows it slows this.
    """
    start = time.process_time()
    table: dict[str, Any] = {}
    for i in range(600):
        table[str(i)] = [i, i * 1.5, (i, str(i))]
    json.loads(json.dumps(table))
    total = 0.0
    for row in table.values():
        total += row[1]
    return time.process_time() - start


def _sample(conn: Any, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples: list[tuple[float, float]] = []
    while not conn.poll(INTERVAL_S):
        samples.append((time.perf_counter(), burst()))
    conn.send(samples)


class HostSpeed:
    """``with HostSpeed() as host:`` — sample until the block ends.

    ``host.speed(t0, t1)`` is then the host's speed between two
    ``perf_counter`` readings (the clock is system-wide on Linux, so the
    samplers' timestamps and the caller's agree).
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._workers: list[tuple[Any, Any]] = []

    def __enter__(self) -> "HostSpeed":
        context = multiprocessing.get_context("fork")
        for cpu in sorted(os.sched_getaffinity(0)):
            ours, theirs = context.Pipe()
            process = context.Process(target=_sample, args=(theirs, cpu), daemon=True)
            process.start()
            theirs.close()
            self._workers.append((process, ours))
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def stop(self) -> None:
        """Collect the samples and end the sampling processes."""
        for process, conn in self._workers:
            try:
                conn.send("stop")
                self._samples.extend(conn.recv())
            except (EOFError, OSError):
                pass
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
            conn.close()
        self._workers.clear()

    def speed(self, t0: float, t1: float) -> float:
        """Reference burst time over the median burst time in ``[t0, t1]``."""
        seen = [cpu_s for at, cpu_s in self._samples if t0 <= at <= t1]
        if len(seen) < 3:
            seen = [cpu_s for _, cpu_s in self._samples]
        return REFERENCE_BURST_S / statistics.median(seen)
