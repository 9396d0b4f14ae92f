"""EXT-S — the schedule service: cold vs warm cache.

The service exists to keep the paper's instant-feedback promise as designs
grow: an unchanged question must come back from cache ~free.  This benchmark
measures that claim on a real workload and writes the numbers to
``benchmarks/out/BENCH_service.json``:

* **cold vs warm** — ``predict_speedup`` on the LU example (the paper's own
  application, at a size where scheduling visibly costs time): the warm
  rerun must be >= 10x faster than the cold one, with byte-identical
  schedules.

``BENCH_SMOKE=1`` shrinks the workloads for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from conftest import OUT_DIR, write_artifact
from repro.apps.lun import lun_taskgraph
from repro.machine import MachineParams
from repro.sched import ScheduleService
from repro.sched.serialize import schedule_to_json

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
CPUS = os.cpu_count() or 1
PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0, process_startup=0.05)

#: accumulated across tests; rewritten after each section completes.
RESULTS: dict = {
    "type": "BENCH_service",
    "smoke": SMOKE,
    "cpus": CPUS,
    "python": sys.version.split()[0],
}


def _flush() -> None:
    write_artifact("BENCH_service.json", json.dumps(RESULTS, indent=2) + "\n")


def test_ext_service_cold_vs_warm_lu(artifact_dir):
    """Warm-cache speedup() on the LU example: >= 10x over cold."""
    graph = lun_taskgraph(8 if SMOKE else 12)
    procs = (1, 2, 4, 8, 16, 32)
    service = ScheduleService()

    t0 = time.perf_counter()
    cold = service.predict_speedup(graph, procs, scheduler="mh", params=PARAMS)
    t_cold = time.perf_counter() - t0

    warm_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        warm = service.predict_speedup(graph, procs, scheduler="mh", params=PARAMS)
        warm_times.append(time.perf_counter() - t0)
    t_warm = min(warm_times)

    # identical answers: the warm report equals the cold one...
    assert warm == cold
    # ...and a second cold service reproduces byte-identical schedules.
    recomputed = ScheduleService().schedules_for_sizes(
        graph, procs, scheduler="mh", params=PARAMS
    )
    warm_schedules = service.schedules_for_sizes(
        graph, procs, scheduler="mh", params=PARAMS
    )
    for n in procs:
        assert schedule_to_json(warm_schedules[n]) == schedule_to_json(recomputed[n])

    stats = service.stats()
    RESULTS["cold_vs_warm"] = {
        "graph": graph.name,
        "tasks": len(graph),
        "proc_counts": list(procs),
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "ratio": t_cold / t_warm,
        "cache": {"hits": stats.hits, "misses": stats.misses},
    }
    _flush()
    assert t_cold >= 10 * t_warm, (
        f"warm sweep only {t_cold / t_warm:.1f}x faster than cold"
    )


def test_ext_service_stats_artifact(artifact_dir):
    """The JSON artifact carries its section plus environment metadata."""
    path = OUT_DIR / "BENCH_service.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["type"] == "BENCH_service"
    assert "cold_vs_warm" in doc
    assert doc["cold_vs_warm"]["ratio"] > 0
