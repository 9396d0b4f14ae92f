"""``mh`` and ``dsh`` on the kernel's rows: same schedules, less work.

``mh`` reads its per-processor finish lower bounds off one
``data_ready_row`` and walks candidates in ascending bound order; ``dsh``
seeds each candidate from per-edge arrival rows and keeps one occupancy list
per candidate.  Here both are held to the frozen pre-kernel references byte
for byte on generated graphs and machines — zero-size edges, zero-work tasks
and tied lower bounds included — the bounds to the per-edge loop they
replaced float for float, and the saving to work counts, not to the clock.
"""

import contextlib

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import ScheduleError
from repro.graph.generators import random_layered
from repro.graph.taskgraph import TaskGraph
from repro.lru import LEDGER
from repro.machine import MachineParams, make_machine
from repro.sched import dsh as dsh_module
from repro.sched import mh as mh_module
from repro.sched._reference import ReferenceDSHScheduler, ReferenceMHScheduler
from repro.sched.dsh import DSHScheduler
from repro.sched.mh import MHScheduler
from repro.sched.serialize import schedule_to_json

#: family -> sizes it is built at here (up to 64 processors)
SIZES = {
    "hypercube": (2, 4, 8, 16, 64),
    "mesh": (4, 9, 16, 64),
    "ring": (3, 5, 8, 16),
    "star": (2, 5, 9, 17),
    "bus": (2, 3, 8),
    "full": (2, 4, 16),
}
PARAMS = (
    MachineParams(msg_startup=0.5, transmission_rate=5.0, hop_latency=0.1,
                  process_startup=0.05),
    MachineParams(msg_startup=0.0, transmission_rate=2.0, process_startup=0.25),
    # no process start-up: a zero-work task takes no time at all
    MachineParams(msg_startup=1.5, transmission_rate=50.0, hop_latency=0.0),
)

machine_st = st.sampled_from(sorted(SIZES)).flatmap(
    lambda family: st.builds(
        make_machine, st.just(family), st.sampled_from(SIZES[family]),
        st.sampled_from(PARAMS),
    )
)


@st.composite
def graph_st(draw) -> TaskGraph:
    """A small DAG whose weights come from short lists, so equal works, equal
    sizes — and with them equal lower bounds on several processors — are the
    common case, and 0.0 (a free message, an instant task) is drawn often."""
    n = draw(st.integers(1, 14))
    graph = TaskGraph("generated")
    for i in range(n):
        graph.add_task(f"t{i}", work=draw(st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.5])))
    for dst in range(1, n):
        for src in draw(st.sets(st.integers(0, dst - 1), max_size=3)):
            size = draw(st.sampled_from([0.0, 1.0, 1.0, 4.0]))
            graph.add_edge(f"t{src}", f"t{dst}", var=f"v{src}_{dst}", size=size)
    return graph


def outcome(scheduler, graph, machine) -> str:
    """The schedule as JSON — or the refusal, worded: an instant task (zero
    work, no process start-up) shares its start with whatever follows it on
    the processor, which ``Schedule.add`` may reject as an overlap.  Live and
    frozen must then be refused alike."""
    try:
        return schedule_to_json(scheduler.schedule(graph, machine))
    except ScheduleError as exc:
        return f"ScheduleError: {exc}"


# --------------------------------------------------------------------- #
# (a) byte-identical to the frozen references
# --------------------------------------------------------------------- #
@given(graph_st(), machine_st, st.booleans())
@settings(max_examples=120, deadline=None)
def test_mh_equals_the_frozen_reference(graph, machine, contention):
    live = outcome(MHScheduler(contention=contention), graph, machine)
    assert live == outcome(ReferenceMHScheduler(contention=contention), graph, machine)


@given(graph_st(), machine_st)
@settings(max_examples=120, deadline=None)
def test_dsh_equals_the_frozen_reference(graph, machine):
    live = outcome(DSHScheduler(), graph, machine)
    assert live == outcome(ReferenceDSHScheduler(), graph, machine)


def test_tied_lower_bounds_do_not_disturb_the_choice():
    """Eight equal, independent tasks on eight idle processors: every bound
    ties, and contention or not the tie must go to the lowest processor the
    reference would pick."""
    graph = TaskGraph("ties")
    graph.add_task("root", work=1.0)
    for i in range(8):
        graph.add_task(f"leaf{i}", work=2.0)
        graph.add_edge("root", f"leaf{i}", var=f"v{i}", size=1.0)
    for family, n in (("hypercube", 8), ("bus", 8), ("star", 9)):
        machine = make_machine(family, n, PARAMS[0])
        for contention in (True, False):
            live = MHScheduler(contention=contention).schedule(graph, machine)
            frozen = ReferenceMHScheduler(contention=contention).schedule(graph, machine)
            assert schedule_to_json(live) == schedule_to_json(frozen)


# --------------------------------------------------------------------- #
# (b) the bounds, and (c) the walks, against the loop they replaced
# --------------------------------------------------------------------- #
class CheckedMH(MHScheduler):
    """``mh`` that, before every choice, replays the per-edge, in-processor-
    order candidate loop it used to run and compares."""

    def __init__(self):
        super().__init__(contention=True)
        self.walks_then = self.walks_now = self.choices = 0

    def _best_proc(self, state, network, ti):
        kernel, tails = state.kernel, state.tails
        duration = kernel.exec_time[ti]
        edges = kernel.in_edges[ti]
        sources = [state.primary(e.src) for e in edges]
        bounds, best, walks = [], None, 0
        for proc in range(len(tails)):
            ready_lb = 0.0
            for edge, src in zip(edges, sources):
                arrival = src.finish + kernel.comm_cost(src.proc, proc, edge.size)
                if arrival > ready_lb:
                    ready_lb = arrival
            tail = tails[proc]
            finish_lb = (ready_lb if ready_lb > tail else tail) + duration
            bounds.append(finish_lb)
            if best is not None and finish_lb > best[0] + 1e-9 * (1.0 + abs(best[0])):
                continue
            ready = 0.0
            for edge, src in zip(edges, sources):
                walks += 1
                ready = max(ready, network.transit(
                    src.proc, proc, edge.size, src.finish, commit=False))
            finish = (ready if ready > tail else tail) + duration
            if best is None or (finish, proc) < best:
                best = (finish, proc)
        assert self._finish_bounds(state, ti) == bounds  # float for float

        before = COUNTS["tentative"]
        chosen = super()._best_proc(state, network, ti)
        now = COUNTS["tentative"] - before
        assert chosen == best[1]
        assert now <= walks
        self.walks_then += walks
        self.walks_now += now
        self.choices += 1
        return chosen


COUNTS = {"tentative": 0, "committing": 0, "occupancy": 0}


@contextlib.contextmanager
def counting():
    """Count tentative and committing ``transit`` walks and ``dsh`` occupancy
    builds (a plain context manager: Hypothesis re-runs a test body many
    times, which a function-scoped ``monkeypatch`` is not made for)."""
    transit, occupancy = mh_module._Network.transit, dsh_module._occupancy

    def counting_transit(self, src, dst, size, available, commit):
        COUNTS["committing" if commit else "tentative"] += 1
        return transit(self, src, dst, size, available, commit)

    def counting_occupancy(state, proc):
        COUNTS["occupancy"] += 1
        return occupancy(state, proc)

    mh_module._Network.transit = counting_transit
    dsh_module._occupancy = counting_occupancy
    COUNTS.update(tentative=0, committing=0, occupancy=0)
    try:
        yield COUNTS
    finally:
        mh_module._Network.transit = transit
        dsh_module._occupancy = occupancy


@given(graph_st(), machine_st)
@settings(max_examples=80, deadline=None)
def test_mh_bounds_and_walks_against_the_per_edge_loop(graph, machine):
    """Checked before every one of the scheduler's choices (see
    :class:`CheckedMH`): bounds equal, choice equal, walks no more."""
    with counting():
        checked = CheckedMH()
        live = outcome(checked, graph, machine)
    assert checked.choices == len(graph) or live.startswith("ScheduleError")
    assert live == outcome(MHScheduler(), graph, machine)


def test_mh_walks_fewer_candidates_on_a_sweep_sized_design():
    graph = random_layered(150, 15, edge_prob=0.12, seed=5)
    machine = make_machine("hypercube", 16, PARAMS[0])
    checked = CheckedMH()
    with counting():
        checked.schedule(graph, machine)
    assert checked.choices == 150
    assert checked.walks_now < 0.8 * checked.walks_then, (
        checked.walks_now, checked.walks_then)


def test_mh_work_counts_on_a_layered_design():
    """One committing link walk per edge; tentative walks at most half of
    what trying every processor would walk; one kernel, whose route memo
    hits more often than it misses (misses are bounded by processor pairs,
    hits grow with messages)."""
    graph = random_layered(120, 8, seed=1)
    machine = make_machine("hypercube", 16, PARAMS[0])
    base = LEDGER.snapshot()
    with counting() as walks:
        MHScheduler().schedule(graph, machine)
    work = LEDGER.since(base)
    assert walks["committing"] == len(graph.edges)
    assert walks["tentative"] <= len(graph.edges) * machine.n_procs // 2, walks
    assert work["kernel_builds"] == 1
    assert work["route_cache_hits"] > work["route_cache_misses"], work


def test_dsh_builds_at_most_one_occupancy_per_candidate(monkeypatch):
    graph = random_layered(120, 8, edge_prob=0.1, seed=2)
    machine = make_machine("hypercube", 16, PARAMS[0])
    plan = DSHScheduler._plan
    per_plan = []

    def counting_plan(self, *args):
        before = COUNTS["occupancy"]
        result = plan(self, *args)
        per_plan.append(COUNTS["occupancy"] - before)
        return result

    monkeypatch.setattr(DSHScheduler, "_plan", counting_plan)
    with counting():
        live = DSHScheduler().schedule(graph, machine)
    # one _plan per (placed task, processor), none of them building twice:
    # at most n_procs occupancy lists per placed task, and nothing sorted
    assert len(per_plan) == len(graph) * machine.n_procs
    assert max(per_plan) <= 1
    assert live.has_duplication()  # the guard saw real planning
    assert schedule_to_json(live) == schedule_to_json(
        ReferenceDSHScheduler().schedule(graph, machine))
