"""Concurrent traffic must not drop counter increments.

The banger daemon's inline mode and any threaded test driver hammer one
:class:`ScheduleService` (and the process-wide kernel counters) from many
threads at once.  Both are read-modify-write counters, so without the locks
added alongside the server subsystem a burst of concurrent increments loses
counts.  These tests assert *exact* totals after a threaded stress run.
"""

from __future__ import annotations

import itertools
import threading

from repro.graph.generators import fork_join, random_layered
from repro.lru import LEDGER
from repro.machine.machine import make_machine
from repro.machine.params import MachineParams
from repro.sched.core import SchedKernel, kernel_counters
from repro.sched.serialize import schedule_to_dict
from repro.sched.service import ScheduleService

PARAMS = MachineParams(msg_startup=0.2, transmission_rate=10.0)


def _run_threads(n_threads: int, fn) -> None:
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def worker() -> None:
        barrier.wait()
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestKernelCounters:
    def test_route_cache_hits_exact_under_contention(self):
        machine = make_machine("hypercube", 8, PARAMS)
        kernel = SchedKernel(fork_join(4), machine)
        pairs = [(a, b) for a in range(8) for b in range(8) if a != b]
        for a, b in pairs:  # warm every route serially: all misses happen here
            kernel.route(a, b)

        base = kernel_counters()
        n_threads, rounds = 8, 400

        def hammer() -> None:
            for _ in range(rounds):
                for a, b in pairs:
                    kernel.route(a, b)

        _run_threads(n_threads, hammer)
        after = kernel_counters()
        expected = n_threads * rounds * len(pairs)
        assert after["route_cache_hits"] - base["route_cache_hits"] == expected
        assert after["route_cache_misses"] == base["route_cache_misses"]

    def test_kernel_builds_exact_under_contention(self):
        graph = fork_join(4)
        machine = make_machine("ring", 4, PARAMS)
        base = kernel_counters()
        n_threads, builds = 6, 50

        def build() -> None:
            for _ in range(builds):
                SchedKernel(graph, machine)

        _run_threads(n_threads, build)
        after = kernel_counters()
        assert after["kernel_builds"] - base["kernel_builds"] == n_threads * builds
        assert after["kernel_build_ms"] > base["kernel_build_ms"]


class TestLedger:
    def test_eight_threads_bumping_one_name_sum_exactly(self):
        base = LEDGER.snapshot()
        n_threads, rounds = 8, 2000

        def hammer() -> None:
            for _ in range(rounds):
                LEDGER.bump("reactive_rounds")

        _run_threads(n_threads, hammer)
        assert LEDGER.since(base)["reactive_rounds"] == n_threads * rounds

    def test_a_service_reports_the_ledger_grown_since_it_was_built(self):
        """No reset exists to make a live service's work negative: a service
        built after earlier work reports exactly what grew since."""
        graph = fork_join(4)
        SchedKernel(graph, make_machine("ring", 4, PARAMS))  # earlier work
        service = ScheduleService(disk_cache=False)
        base = LEDGER.snapshot()
        service.schedule(graph, make_machine("ring", 5, PARAMS), "hlfet")
        stats = service.stats()
        grown = LEDGER.since(base)
        for name, value in grown.items():
            assert getattr(stats, name) == value >= 0, name
        assert stats.kernel_builds == 1


class TestServiceStats:
    def test_cache_hits_exact_under_contention(self):
        service = ScheduleService(disk_cache=False)
        graph = random_layered(40, n_layers=5, seed=7)
        machine = make_machine("hypercube", 4, PARAMS)
        service.schedule(graph, machine, "mh")  # warm: the only miss
        reference = schedule_to_dict(service.schedule(graph, machine, "mh"))
        base = service.stats()
        assert base.misses == 1

        n_threads, rounds = 8, 300

        def hammer() -> None:
            for _ in range(rounds):
                assert schedule_to_dict(service.schedule(graph, machine, "mh")) == reference

        _run_threads(n_threads, hammer)
        stats = service.stats()
        assert stats.hits - base.hits == n_threads * rounds
        assert stats.misses == base.misses

    def test_hit_miss_total_exact_with_racing_misses(self):
        """Threads racing on cold keys may duplicate work, never drop counts."""
        service = ScheduleService(disk_cache=False)
        graph = fork_join(6)
        machines = [
            make_machine("ring", n, PARAMS) for n in (3, 4, 5, 6, 7, 8, 9)
        ]
        n_threads, rounds = 6, 20

        def hammer() -> None:
            for _ in range(rounds):
                for machine in machines:
                    service.schedule(graph, machine, "hlfet")

        _run_threads(n_threads, hammer)
        stats = service.stats()
        total = n_threads * rounds * len(machines)
        assert stats.hits + stats.misses == total
        assert stats.entries == len(machines)

    def test_concurrent_eviction_keeps_lru_consistent(self):
        service = ScheduleService(max_entries=4, disk_cache=False)
        graph = fork_join(3)
        machines = [make_machine("ring", n, PARAMS) for n in range(3, 13)]

        def hammer() -> None:
            for machine in machines:
                service.schedule(graph, machine, "hlfet")

        _run_threads(8, hammer)
        stats = service.stats()
        assert len(service) <= 4
        assert stats.entries <= 4
        assert stats.hits + stats.misses == 8 * len(machines)


class TestDiskWriters:
    def test_racing_writers_of_one_key_never_publish_a_torn_entry(self, tmp_path):
        """Two services on one directory (daemon workers sharing
        ``BANGER_CACHE_DIR``) rewrite one schedule key from 8 threads: each
        writer's temp file is its own, so what gets renamed into place is
        always a complete entry."""
        from repro.sched.registry import resolve_scheduler
        from repro.sched.serialize import schedule_to_json

        graph = random_layered(40, 5, seed=3)
        machine = make_machine("hypercube", 8, PARAMS)
        services = [ScheduleService(disk_cache=tmp_path) for _ in range(2)]
        schedule = services[0].schedule(graph, machine, "mh")
        key = services[0]._key(graph, machine, resolve_scheduler("mh"))
        turn = itertools.count()

        def hammer() -> None:
            svc = services[next(turn) % 2]
            for _ in range(25):
                svc._put(key, schedule)
                svc.clear()  # read back through the disk tier mid-race
                again = svc.schedule(graph, machine, "mh")
                assert schedule_to_json(again) == schedule_to_json(schedule)

        _run_threads(8, hammer)
        assert [svc.stats().disk_evictions for svc in services] == [0, 0]

        fresh = ScheduleService(disk_cache=tmp_path)  # a "new process"
        fresh.schedule(graph, machine, "mh")
        stats = fresh.stats()
        assert (stats.disk_hits, stats.disk_evictions) == (1, 0)
        assert not list(tmp_path.rglob("*.tmp*"))
