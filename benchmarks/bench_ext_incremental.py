"""EXT-L — interactive edit latency: incremental rescheduling + compiled tables.

PR 8's tentpole exists so a one-node edit in a large design answers at
interactive latency instead of paying a full from-scratch reschedule.  This
benchmark measures both halves and writes
``benchmarks/out/BENCH_incremental.json``:

* **warm edit latency** — schedule ``random_layered(1000, 20, seed=3)`` on a
  64-processor hypercube with MH once, then time single-node work edits two
  ways: :func:`repro.sched.incremental.incremental_reschedule` against the
  prior schedule (the edit loop's warm path, including the content diff and
  dirty-cone analysis) vs a full ``MHScheduler`` run on the edited graph
  (the cold alternative every edit used to pay).  The p95 warm edit must be
  >= 5x faster than the p95 full reschedule, and every incremental answer is
  byte-compared against the :func:`full_reschedule` reference.
* **compiled route builds** — kernel construction on a warm
  compiled-topology cache (flat-table hit by machine content hash) vs a cold
  cache (every build re-walks all processor pairs).  Warm builds must be
  >= 5x faster, proving kernels on warm topologies really skip BFS.
* **smoke run** (``BENCH_SMOKE=1``) — ``random_layered(120, 8, seed=1)`` on
  16 processors with both bars at >= 1.5x so CI stays quick and immune to
  runner noise.

The artifact records the dirty-set sizes and reused fractions per edit plus
the ``compiled_hits`` / ``compiled_misses`` counter deltas, so a cache
regression is visible in the numbers even when the timing bars still pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

from conftest import OUT_DIR, write_artifact
from repro.graph.generators import fork_join, random_layered
from repro.machine import MachineParams
from repro.machine.compiled import clear_compiled, compiled_for
from repro.machine.machine import make_machine
from repro.lru import LEDGER
from repro.sched.core import SchedKernel
from repro.sched.incremental import full_reschedule, incremental_reschedule
from repro.sched.mh import MHScheduler
from repro.sched.serialize import schedule_to_json

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
PARAMS = MachineParams(
    msg_startup=0.5, transmission_rate=5.0, process_startup=0.05, hop_latency=0.1
)

#: (tasks, layers, seed, procs, edits, required speedup)
CONFIG = (120, 8, 1, 16, 8, 1.5) if SMOKE else (1000, 20, 3, 64, 10, 5.0)

#: (procs, builds, required speedup) for the compiled-vs-lazy route bar
BUILD_CONFIG = (16, 20, 1.5) if SMOKE else (64, 30, 5.0)

#: full MH reschedules timed for the baseline (each run is seconds at the
#: flagship size, so the baseline sample is smaller than the edit sample).
N_FULL = 3

RESULTS: dict = {
    "type": "BENCH_incremental",
    "smoke": SMOKE,
    "python": sys.version.split()[0],
}


def _flush() -> None:
    write_artifact("BENCH_incremental.json", json.dumps(RESULTS, indent=2) + "\n")


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))]


def test_incremental_edit_latency(artifact_dir):
    """p95 single-node-edit latency: incremental vs full MH reschedule."""
    tasks, layers, seed, procs, n_edits, required = CONFIG
    graph = random_layered(tasks, layers, seed=seed)
    machine = make_machine("hypercube", procs, PARAMS)
    prev = MHScheduler().schedule(graph, machine)

    victims = [graph.task_names[(i * len(graph)) // n_edits] for i in range(n_edits)]
    edited_graphs = []
    for victim in victims:
        edited = graph.copy()
        edited.set_work(victim, edited.work(victim) * 2.0 + 1.0)
        edited_graphs.append(edited)

    inc_times: list[float] = []
    dirty: list[int] = []
    reused: list[float] = []
    for edited in edited_graphs:
        t0 = time.perf_counter()
        result = incremental_reschedule(prev, edited)
        inc_times.append(time.perf_counter() - t0)
        dirty.append(result.n_dirty)
        reused.append(result.reused_fraction)

    # Honesty check before timing the baseline: the warm path's answer is
    # byte-identical to the deterministic full-retime reference.
    identical = all(
        schedule_to_json(incremental_reschedule(prev, edited).schedule)
        == schedule_to_json(full_reschedule(prev, edited))
        for edited in edited_graphs[:3]
    )

    full_times: list[float] = []
    for edited in edited_graphs[:N_FULL]:
        t0 = time.perf_counter()
        MHScheduler().schedule(edited, machine)
        full_times.append(time.perf_counter() - t0)

    p95_inc, p95_full = _p95(inc_times), _p95(full_times)
    ratio = p95_full / p95_inc
    RESULTS["edit_latency"] = {
        "graph": graph.name,
        "tasks": tasks,
        "procs": procs,
        "edits": n_edits,
        "p95_incremental_seconds": p95_inc,
        "p95_full_seconds": p95_full,
        "speedup": ratio,
        "required_speedup": required,
        "byte_identical_to_reference": identical,
        "dirty_sizes": dirty,
        "reused_fractions": reused,
    }
    _flush()
    assert identical, "incremental diverged from the full-retime reference"
    assert all(0.0 < f < 1.0 for f in reused), (
        "single-node edits should reuse a proper, non-empty schedule prefix"
    )
    assert ratio >= required, (
        f"warm edit only {ratio:.1f}x faster than a full reschedule "
        f"(required {required}x on {tasks} tasks / {procs} procs)"
    )


def test_compiled_route_build_speedup(artifact_dir):
    """Kernel builds on a warm compiled-topology cache skip the route walk."""
    procs, builds, required = BUILD_CONFIG
    graph = fork_join(8)

    def build_once() -> None:
        # A fresh machine object each build: only the *content-addressed*
        # compiled cache may carry tables across builds, exactly as when a
        # daemon deserializes a machine per request.
        machine = make_machine("hypercube", procs, PARAMS)
        SchedKernel(graph, machine)

    base = LEDGER.snapshot()
    t0 = time.perf_counter()
    for _ in range(builds):
        clear_compiled()
        build_once()
    t_cold = time.perf_counter() - t0
    cold_counters = LEDGER.since(base)

    compiled_for(make_machine("hypercube", procs, PARAMS))  # warm the cache
    base = LEDGER.snapshot()
    t0 = time.perf_counter()
    for _ in range(builds):
        build_once()
    t_warm = time.perf_counter() - t0
    warm_counters = LEDGER.since(base)

    ratio = t_cold / t_warm
    RESULTS["compiled_route_builds"] = {
        "procs": procs,
        "builds": builds,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "speedup": ratio,
        "required_speedup": required,
        "cold_compiled_misses": cold_counters["compiled_misses"],
        "warm_compiled_hits": warm_counters["compiled_hits"],
        "warm_compiled_misses": warm_counters["compiled_misses"],
    }
    _flush()
    assert cold_counters["compiled_misses"] == builds
    assert warm_counters["compiled_hits"] == builds
    assert warm_counters["compiled_misses"] == 0
    assert ratio >= required, (
        f"warm kernel builds only {ratio:.1f}x faster than cold "
        f"(required {required}x on {procs} procs)"
    )


def test_incremental_artifact(artifact_dir):
    """The JSON artifact carries both bars plus environment metadata."""
    doc = json.loads(
        (OUT_DIR / "BENCH_incremental.json").read_text(encoding="utf-8")
    )
    assert doc["type"] == "BENCH_incremental"
    assert doc["edit_latency"]["byte_identical_to_reference"] is True
    assert doc["edit_latency"]["speedup"] > 0
    assert doc["compiled_route_builds"]["speedup"] > 0
