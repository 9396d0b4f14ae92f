"""Dynamic simulation: null contract, degradation, failures, stranding."""

import pytest

from repro.graph.generators import fork_join, lu_taskgraph, random_layered
from repro.machine import MachineParams, build_topology
from repro.machine.machine import TargetMachine
from repro.machine.scenario import (
    LINK_FAIL,
    PROC_FAIL,
    PROC_SLOWDOWN,
    FaultEvent,
    FaultScenario,
    seeded_scenario,
)
from repro.sched import Schedule
from repro.sched.mh import MHScheduler
from repro.sim import Trace, simulate
from repro.lru import LEDGER
from repro.sim.dynamic import expected_stranded, simulate_dynamic

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=10.0, hop_latency=0.1)


@pytest.fixture
def schedule():
    tg = random_layered(24, 5, seed=3)
    machine = TargetMachine(build_topology("hypercube", 4), PARAMS)
    return MHScheduler().schedule(tg, machine)


class TestNullContract:
    def test_empty_scenario_is_byte_identical_to_static(self, schedule):
        static = simulate(schedule, contention=False)
        dynamic = simulate_dynamic(schedule, FaultScenario.empty())
        assert dynamic.runs == static.runs
        assert dynamic.hops == static.hops
        assert not dynamic.stranded and not dynamic.killed_runs and not dynamic.lost

    def test_none_scenario_means_empty(self, schedule):
        assert simulate_dynamic(schedule).runs == simulate(schedule).runs

    def test_contention_variant_also_null(self, schedule):
        static = simulate(schedule, contention=True)
        dynamic = simulate_dynamic(schedule, contention=True)
        assert dynamic.runs == static.runs
        assert dynamic.hops == static.hops

    @pytest.mark.parametrize("contention", [False, True])
    def test_static_replay_ignores_heterogeneity_factors(self, contention):
        tg = fork_join(8, work=3.0, comm=1.0)
        machine = TargetMachine(
            build_topology("ring", 4), PARAMS,
            proc_speed_factors=[1.0, 0.5, 0.8, 1.0],
            link_bandwidth_factors={(0, 1): 0.5},
        )
        schedule = MHScheduler().schedule(tg, machine)
        stripped = Schedule(tg, machine.uniform(), schedule.scheduler)
        for p in schedule:
            stripped.add(p.task, p.proc, p.start, p.finish)

        static = simulate(schedule, contention=contention)
        assert type(static) is Trace
        assert static.runs == simulate(stripped, contention=contention).runs
        assert static.hops == simulate(stripped, contention=contention).hops
        # not vacuous: the same engine does see the factors when asked to
        assert simulate_dynamic(schedule, contention=contention).runs != static.runs


class TestDegradation:
    def test_slowdown_only_delays(self, schedule):
        scenario = FaultScenario(
            events=(FaultEvent(time=0.0, kind=PROC_SLOWDOWN, proc=0, factor=3.0),)
        )
        trace = simulate_dynamic(schedule, scenario)
        static = simulate(schedule)
        assert trace.makespan() >= static.makespan()
        assert not trace.stranded
        assert set(trace.completed) == set(schedule.graph.task_names)

    def test_noise_never_beats_nominal(self, schedule):
        scenario = FaultScenario(duration_noise=0.25, noise_seed=11)
        trace = simulate_dynamic(schedule, scenario)
        for run in trace.runs:
            nominal = schedule.primary(run.task).duration
            assert run.finish - run.start >= nominal - 1e-9

    def test_heterogeneous_machine_never_beats_nominal(self):
        tg = fork_join(8, work=3.0, comm=1.0)
        machine = TargetMachine(
            build_topology("ring", 4), PARAMS,
            proc_speed_factors=[1.0, 0.5, 0.8, 1.0],
            link_bandwidth_factors={(0, 1): 0.5},
        )
        schedule = MHScheduler().schedule(tg, machine)
        trace = simulate_dynamic(schedule, FaultScenario.empty())
        for run in trace.runs:
            nominal = schedule.primary(run.task).duration
            assert run.finish - run.start >= nominal - 1e-9
        uniform = MHScheduler().schedule(tg, machine.uniform())
        assert trace.makespan() >= simulate(uniform).makespan() - 1e-9

    def test_determinism(self, schedule):
        scenario = seeded_scenario(4, schedule.machine, schedule.makespan(),
                                   profile="combined")
        a = simulate_dynamic(schedule, scenario)
        b = simulate_dynamic(schedule, scenario)
        assert a.runs == b.runs and a.hops == b.hops
        assert a.stranded == b.stranded and a.lost == b.lost


class TestFailures:
    def test_proc_failure_kills_and_strands(self, schedule):
        at = 0.3 * schedule.makespan()
        scenario = FaultScenario(
            events=(FaultEvent(time=at, kind=PROC_FAIL, proc=1),)
        )
        trace = simulate_dynamic(schedule, scenario)
        # every task either completed or is accounted for as stranded
        names = set(schedule.graph.task_names)
        assert trace.completed | set(trace.stranded) == names
        assert trace.completed.isdisjoint(trace.stranded)
        # the killed partial run ends exactly at the failure time
        for run in trace.killed_runs:
            assert run.finish == pytest.approx(at)
            assert run.task in trace.stranded
        # nothing runs on the dead processor after the failure
        for run in trace.runs:
            if run.proc == 1:
                assert run.start < at

    def test_link_failure_loses_messages(self):
        tg = lu_taskgraph(5, work=2.0, comm=4.0)
        machine = TargetMachine(build_topology("ring", 4), PARAMS)
        schedule = MHScheduler().schedule(tg, machine)
        scenario = FaultScenario(
            events=(FaultEvent(time=0.0, kind=LINK_FAIL, link=(0, 1)),)
        )
        trace = simulate_dynamic(schedule, scenario)
        # a hot link at t=0 must cost something: either messages crossed it
        # (and were lost, stranding their consumers) or nothing routed there
        for src, dst, var in trace.lost:
            assert dst in trace.stranded or any(
                r.task == dst for r in trace.killed_runs
            )

    def test_expected_stranded_matches_simulation(self, schedule):
        for seed in range(6):
            scenario = seeded_scenario(seed, schedule.machine,
                                       schedule.makespan(), profile="failure")
            trace = simulate_dynamic(schedule, scenario)
            expected = expected_stranded(schedule, trace, scenario)
            assert expected is not None
            assert expected == set(trace.stranded)

    def test_no_deadlock_raise_under_failures(self, schedule):
        # stranding from a dead processor must not be misreported as deadlock
        scenario = FaultScenario(
            events=(FaultEvent(time=0.0, kind=PROC_FAIL, proc=0),)
        )
        trace = simulate_dynamic(schedule, scenario)
        assert trace.stranded


class TestCounters:
    def test_counters_accumulate(self, schedule):
        base = LEDGER.snapshot()
        simulate_dynamic(schedule, FaultScenario.empty())
        scenario = FaultScenario(
            events=(FaultEvent(time=0.0, kind=PROC_FAIL, proc=0),)
        )
        trace = simulate_dynamic(schedule, scenario)
        counters = LEDGER.since(base)
        assert counters["dynamic_sims"] == 2
        assert counters["stranded_tasks"] == len(trace.stranded) > 0
