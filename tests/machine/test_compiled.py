"""CompiledTopology: byte-identity with the live topology, the process cache
+ counters, and staleness on machine invalidation."""

import pytest

from repro.conformance.generators import MACHINE_FAMILIES
from repro.errors import MachineError
from repro.machine import MachineParams, TargetMachine, make_machine
from repro.machine.compiled import (
    CompiledTopology,
    cached_compiled,
    clear_compiled,
    compiled_for,
    evict_compiled,
)
from repro.lru import LEDGER
from repro.machine.topology import Topology
from repro.sched.service import ScheduleService

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=8.0, hop_latency=0.1)


def every_family_machine():
    for family, sizes in MACHINE_FAMILIES:
        for n in (sizes[0], sizes[-1]):
            yield make_machine(family, n, PARAMS)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "machine", every_family_machine(), ids=lambda m: m.topology.name
    )
    def test_tables_match_live_topology(self, machine):
        topo = machine.topology
        compiled = CompiledTopology.compile(machine)
        assert compiled.n_procs == topo.n_procs
        assert compiled.machine_hash == machine.content_hash()
        for src in range(topo.n_procs):
            for dst in range(topo.n_procs):
                assert compiled.hops(src, dst) == topo.hops(src, dst)
                assert compiled.route(src, dst) == tuple(topo.route(src, dst))
        assert compiled.diameter() == topo.diameter()
        # Exact float equality: the summation order is replicated on purpose.
        assert compiled.average_distance() == topo.average_distance()
        avg = topo.average_distance()
        for size in (0.0, 1.0, 7.25):
            assert machine.mean_comm_cost(size) == (
                PARAMS.msg_startup
                + avg * PARAMS.hop_latency
                + avg * size / PARAMS.transmission_rate
            )

    def test_single_processor_machine(self):
        machine = make_machine("full", 1, PARAMS)
        compiled = CompiledTopology.compile(machine)
        assert compiled.diameter() == 0
        assert compiled.average_distance() == 0.0
        assert machine.mean_comm_cost(5.0) == 0.0


class TestSerialization:
    def test_malformed_table_sizes_rejected(self):
        with pytest.raises(MachineError, match="entries"):
            CompiledTopology("deadbeef", 2, [0], [()])


class TestProcessCache:
    def test_hit_and_miss_counters(self):
        clear_compiled()
        base = LEDGER.snapshot()
        machine = make_machine("mesh", 9, PARAMS)
        first = compiled_for(machine)
        again = compiled_for(machine)
        assert again is first
        # A content-equal machine object shares the entry.
        clone = make_machine("mesh", 9, PARAMS)
        assert compiled_for(clone) is first
        counters = LEDGER.since(base)
        assert counters["compiled_misses"] == 1
        assert counters["compiled_hits"] == 2

    def test_kernel_builds_compile_cold_and_look_up_warm(self):
        """A fresh machine object per kernel build, as a daemon decodes one
        per request: only the content-addressed cache carries tables over."""
        from repro.graph.generators import fork_join
        from repro.sched.core import SchedKernel

        graph, builds = fork_join(8), 6
        base = LEDGER.snapshot()
        for _ in range(builds):
            clear_compiled()
            SchedKernel(graph, make_machine("hypercube", 16, PARAMS))
        cold = LEDGER.since(base)
        base = LEDGER.snapshot()
        for _ in range(builds):
            SchedKernel(graph, make_machine("hypercube", 16, PARAMS))
        warm = LEDGER.since(base)
        assert (cold["compiled_misses"], cold["compiled_hits"]) == (builds, 0)
        assert (warm["compiled_misses"], warm["compiled_hits"]) == (0, builds)

    def test_evict_forces_recompile(self):
        clear_compiled()
        machine = make_machine("star", 4, PARAMS)
        first = compiled_for(machine)
        evict_compiled(machine.content_hash())
        assert cached_compiled(machine.content_hash()) is None
        assert compiled_for(machine) is not first


class TestServiceTiers:
    def test_invalidate_evicts_every_tier(self, tmp_path):
        """An in-place topology mutation must never be served stale routes."""
        clear_compiled()
        # A hand-built line: BFS-routed, so new links genuinely change routes.
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)], name="line4")
        machine = TargetMachine(topo, PARAMS)
        old_hash = machine.content_hash()

        svc = ScheduleService(disk_cache=tmp_path)
        stale = svc.compiled(machine)
        assert stale.hops(0, 3) == 3
        assert not (svc.disk_dir / "compiled").exists()  # tables stay in memory

        topo.add_link(0, 3)  # the mutation: hash changes, old tables are stale
        assert machine.content_hash() != old_hash
        svc.invalidate(machine_hash=old_hash)

        assert cached_compiled(old_hash) is None
        fresh = svc.compiled(machine)  # recompiles
        assert fresh is not stale
        assert fresh.hops(0, 3) == 1
        assert fresh.machine_hash == machine.content_hash()

    def test_schedule_warms_the_compiled_cache(self):
        from repro.graph.generators import fork_join

        clear_compiled()
        machine = make_machine("hypercube", 4, PARAMS)
        svc = ScheduleService(disk_cache=False)
        svc.schedule(fork_join(4), machine, "mh")
        assert cached_compiled(machine.content_hash()) is not None
        stats = svc.stats()
        assert stats.compiled_misses >= 1


class TestSharedMedium:
    """A bus's shared medium is a fact of the machine document, compiled
    with its routes: ``mh`` and the replay read it there, not off whatever
    topology object a machine happens to carry."""

    @pytest.mark.parametrize(
        "machine", every_family_machine(), ids=lambda m: m.topology.name
    )
    def test_flag_and_link_ids_match_the_family(self, machine):
        compiled = CompiledTopology.compile(machine)
        assert compiled.shared_medium is machine.topology.shared_medium
        assert compiled.shared_medium is (machine.topology.family == "bus")
        assert machine.shared_medium is compiled.shared_medium
        count, crossed = compiled.link_ids()
        assert len(crossed) == machine.n_procs ** 2
        link_of = {}
        for path, ids in zip(compiled.routes, crossed):
            assert len(ids) == len(path) - 1
            for a, b, link in zip(path, path[1:], ids):
                assert link_of.setdefault(link, {a, b}) == {a, b} or compiled.shared_medium
        if compiled.shared_medium:
            assert count == 1 and {i for ids in crossed for i in ids} <= {0}
        else:  # one id per undirected link some route crosses, numbered from 0
            assert sorted(link_of) == list(range(count))
            assert len({frozenset(ends) for ends in link_of.values()}) == count
            assert count <= len(machine.topology.links)

    def test_a_reloaded_bus_schedules_and_replays_like_the_in_memory_one(self):
        from repro.graph.generators import random_layered
        from repro.machine import CustomTopology
        from repro.sched import get_scheduler
        from repro.sched.serialize import schedule_to_dict
        from repro.sim import simulate

        graph = random_layered(40, 5, edge_prob=0.3, seed=4)
        bus = make_machine("bus", 4, PARAMS)
        reloaded = TargetMachine.from_dict(bus.to_dict())
        # the same document on an object that forgot it is a bus: nothing
        # reads the object's flag any more, so it cannot matter either
        forgetful = CustomTopology(4, bus.topology.links, name=bus.topology.name)
        forgetful.family = "bus"
        amnesiac = TargetMachine(forgetful, PARAMS, name=bus.name)
        assert amnesiac.content_hash() == bus.content_hash()
        assert not forgetful.shared_medium

        def plan_and_replay(machine):
            clear_compiled()
            schedule = get_scheduler("mh").schedule(graph, machine)
            trace = simulate(schedule, contention=True)
            return schedule_to_dict(schedule)["placements"], \
                schedule_to_dict(schedule)["messages"], trace.makespan()

        expected = plan_and_replay(bus)
        assert plan_and_replay(reloaded) == expected
        assert plan_and_replay(amnesiac) == expected
        # and the medium is really shared: a fully connected machine of the
        # same size and links plans its messages differently
        full = make_machine("full", 4, PARAMS)
        assert plan_and_replay(full)[1] != expected[1]
        clear_compiled()
