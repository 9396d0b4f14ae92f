"""The earliest-start table: always equal to recomputing every pair afresh.

ETF and DLS run :func:`repro.sched.core.run_start_table`; here the table
under it is driven one placement at a time and, before every pick, checked
cell for cell against the definition it replaced — a fresh
``earliest_start`` per ready task × processor, a brute-force minimum per row
and over all pairs.  A second oracle checks every cell after every placement
of the schedulers themselves, zero-width placements and duplicate edges
included, against a fresh ``Schedule.insertion_slot`` (or the processor's
tail).  Mutants of the column refresh show the checks can fail, and a work
count (not a timing) pins what the table saves: one data-ready row per task,
one gap search per cell on admission, and after that gap searches only for a
placement that filled a gap.
"""

import math
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph.generators import FAMILIES, random_layered
from repro.machine import MachineParams, make_machine
from repro.sched import DLSScheduler, ETFScheduler, get_scheduler
from repro.sched.core import KernelState, SchedKernel, StartTable
from repro.sched.schedule import Schedule

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=4.0, hop_latency=0.05)
MACHINES = [("hypercube", 4), ("mesh", 9), ("star", 5), ("bus", 3)]

family_st = st.sampled_from(sorted(FAMILIES))
machine_st = st.sampled_from(MACHINES).map(lambda fam: make_machine(fam[0], fam[1], PARAMS))


def _keys(kernel: SchedKernel) -> dict:
    """The two selection keys of ``listsched.py``, by scheduler name."""
    sl = kernel.priority_array(kernel.static_levels())
    tasks = kernel.tasks
    return {
        "etf": lambda ti, start, proc: (start, -sl[ti], proc, tasks[ti]),
        "dls": lambda ti, start, proc: (-(sl[ti] - start), start, proc, tasks[ti]),
    }


def _check_table(table: StartTable, state: KernelState, insertion: bool, key) -> None:
    """Every invariant of the table, against the state it summarises."""
    kernel, graph = state.kernel, state.kernel.graph
    procs = range(kernel.machine.n_procs)
    ready = {
        kernel.index[t]
        for t in graph.task_names
        if t not in state and all(p in state for p in graph.predecessors(t))
    }
    assert set(table.rows) == set(table.best) == ready
    pairs = []
    for ti, (arrivals, starts) in table.rows.items():
        assert arrivals == state.data_ready_row(ti)
        assert arrivals == [state.data_ready_time(ti, p) for p in procs]
        assert starts == [state.earliest_start(ti, p, insertion) for p in procs]
        assert table.best[ti] == min((starts[p], p) for p in procs)
        pairs += [(key(ti, starts[p], p), (ti, p, starts[p])) for p in procs]
    assert table.pick(key) == min(pairs)[1]  # what the old double loop chose


def _drive(graph, machine, insertion: bool, name: str) -> None:
    kernel = SchedKernel(graph, machine)
    state = KernelState(kernel, scheduler_name=name)
    key = _keys(kernel)[name]
    table = StartTable(state, insertion)
    for _ in range(kernel.n):
        _check_table(table, state, insertion, key)
        table.place(*table.pick(key))
    assert not table.rows and state.sched.is_complete()


@given(family_st, machine_st, st.booleans(), st.sampled_from(["etf", "dls"]))
@settings(max_examples=60, deadline=None)
def test_table_equals_fresh_recomputation_before_every_pick(family, machine, insertion, name):
    _drive(FAMILIES[family](), machine, insertion, name)


def _every_case() -> None:
    for build in FAMILIES.values():
        for insertion in (False, True):
            _drive(build(), make_machine(*MACHINES[0], PARAMS), insertion, "etf")


def test_check_passes_on_every_family():
    _every_case()


MUTANTS = {
    "skips the refresh": lambda refresh: lambda self, proc, *rule: None,
    "refreshes the wrong column": (
        lambda refresh: lambda self, proc, *rule: refresh(self, proc ^ 1, *rule)
    ),
    # The append rule, keeping every cell or none.
    "an append keeps every cell": (
        lambda refresh: lambda self, proc, fits, tail: refresh(
            self, proc, fits if fits is None else math.inf, tail)
    ),
    "an append keeps no cell": (
        lambda refresh: lambda self, proc, fits, tail: refresh(
            self, proc, fits if fits is None else -math.inf, tail)
    ),
}


@pytest.mark.parametrize("mutant", ["skips the refresh", "refreshes the wrong column"])
def test_check_catches_a_stale_column(monkeypatch, mutant):
    monkeypatch.setattr(StartTable, "_refresh", MUTANTS[mutant](StartTable._refresh))
    with pytest.raises(AssertionError):
        _every_case()


@given(family_st, machine_st)
@settings(max_examples=40, deadline=None)
def test_row_equals_single_pairs_under_duplication(family, machine):
    """``dsh`` leaves several copies of a task: the row takes the cheapest
    copy per edge and processor, exactly as ``data_ready_time`` does."""
    graph = FAMILIES[family]()
    kernel = SchedKernel(graph, machine)
    state = KernelState(kernel)
    for entry in get_scheduler("dsh").schedule(graph, machine):
        state.add(entry.task, entry.proc, entry.start, entry.finish)
    for ti in range(kernel.n):
        assert state.data_ready_row(ti) == [
            state.data_ready_time(ti, p) for p in range(machine.n_procs)
        ]


# --------------------------------------------------------------------- #
# after every placement of the schedulers themselves
# --------------------------------------------------------------------- #
def _check_cells(table: StartTable) -> None:
    """Every cell is what a fresh gap search (or the processor's last
    finish, without insertion) gives on the schedule as it now stands."""
    state = table._state
    sched, exec_time = state.sched, state.kernel.exec_time
    for ti, (arrivals, starts) in table.rows.items():
        for proc, ready in enumerate(arrivals):
            if table._insertion:
                fresh = sched.insertion_slot(proc, ready, exec_time[ti])
            else:
                timeline = sched.timeline(proc)
                fresh = max(ready, timeline[-1].finish if timeline else 0.0)
            assert starts[proc] == fresh, (ti, proc)


def _checked_run(monkeypatch, scheduler, graph, machine) -> Counter:
    """Run ``scheduler`` with :func:`_check_cells` after every placement;
    count the placements appended behind their processor's timeline."""
    place, kinds = StartTable.place, Counter()

    def checked(table, ti, proc, start):
        before = list(table._state.sched.timeline(proc))
        place(table, ti, proc, start)
        kinds["appended" if table._state.sched.timeline(proc)[:-1] == before else "gap"] += 1
        _check_cells(table)

    monkeypatch.setattr(StartTable, "place", checked)
    assert scheduler.schedule(graph, machine).is_complete()
    return kinds


SCHEDULERS = {
    "etf": lambda: get_scheduler("etf"),
    "dls": lambda: get_scheduler("dls"),
    "etf+insertion": lambda: ETFScheduler(insertion=True),
    "dls-insertion": lambda: DLSScheduler(insertion=False),
}


@st.composite
def rough_graphs(draw):
    """``random_layered`` with some tasks of zero work (zero-width
    placements) and some edges doubled under a second variable."""
    n = draw(st.integers(2, 40))
    graph = random_layered(n, draw(st.integers(1, min(n, 8))),
                           edge_prob=draw(st.floats(0.05, 0.6)), seed=draw(st.integers(0, 999)))
    names = graph.task_names
    for name in draw(st.sets(st.sampled_from(names), max_size=n // 2)):
        graph.set_work(name, 0.0)
    edges = list(graph.edges)
    if edges:
        for edge in draw(st.lists(st.sampled_from(edges), max_size=6, unique=True)):
            graph.add_edge(edge.src, edge.dst, var=edge.var + "_dup", size=edge.size)
    return graph


@given(rough_graphs(), machine_st, st.sampled_from(sorted(SCHEDULERS)))
@settings(max_examples=80, deadline=None)
def test_every_cell_equals_a_fresh_slot_after_every_placement(graph, machine, name):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checked_run(monkeypatch, SCHEDULERS[name](), graph, machine)


def _mixed_graph():
    """150 tasks, every seventh of zero work: both kinds of placement."""
    graph = random_layered(150, 8, edge_prob=0.1)
    for task in graph.task_names[::7]:
        graph.set_work(task, 0.0)
    return graph


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_cell_oracle_sees_appends_and_filled_gaps(monkeypatch, name):
    scheduler, graph = SCHEDULERS[name](), _mixed_graph()
    kinds = _checked_run(monkeypatch, scheduler, graph, make_machine("hypercube", 16, PARAMS))
    if scheduler.insertion:
        assert kinds["appended"] > kinds["gap"] > 0
    else:
        assert (kinds["appended"], kinds["gap"]) == (len(graph), 0)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_cell_oracle_catches_a_stale_column(monkeypatch, mutant):
    monkeypatch.setattr(StartTable, "_refresh", MUTANTS[mutant](StartTable._refresh))
    with pytest.raises(AssertionError):
        _checked_run(monkeypatch, get_scheduler("dls"), _mixed_graph(),
                     make_machine("hypercube", 16, PARAMS))


# --------------------------------------------------------------------- #
# the work the table does
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_each_row_is_computed_once_and_each_placement_refreshes_one_column(monkeypatch, name):
    scheduler, graph = SCHEDULERS[name](), _mixed_graph()
    machine = make_machine("hypercube", 16, PARAMS)
    n, n_procs = len(graph), machine.n_procs
    counts: Counter = Counter()
    placements: list[tuple[bool, int]] = []  # (appended?, other ready rows)
    refreshes: list[int] = []  # gap searches per column refresh

    def counted(cls, method, tally):
        inner = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            tally(self, result)
            return result

        monkeypatch.setattr(cls, method, wrapper)

    counted(KernelState, "data_ready_row", lambda _, row: counts.update(rows=1, cells=len(row)))
    counted(KernelState, "data_ready_time", lambda *_: counts.update(single_cells=1))
    counted(KernelState, "slot", lambda *_: counts.update(slot_calls=1))
    counted(Schedule, "insertion_slot", lambda *_: counts.update(gap_searches=1))
    place, refresh = StartTable.place, StartTable._refresh

    def placed(table, ti, proc, start):
        before, others = list(table._state.sched.timeline(proc)), len(table.rows) - 1
        place(table, ti, proc, start)
        placements.append((table._state.sched.timeline(proc)[:-1] == before, others))

    def refreshed(table, *args):
        searches = counts["gap_searches"]
        refresh(table, *args)
        refreshes.append(counts["gap_searches"] - searches)

    monkeypatch.setattr(StartTable, "place", placed)
    monkeypatch.setattr(StartTable, "_refresh", refreshed)

    assert scheduler.schedule(graph, machine).is_complete()

    assert len(placements) == len(refreshes) == n
    assert max(others for _, others in placements) > 8  # rows did sit in the table
    assert (counts["rows"], counts["cells"], counts["single_cells"]) == (n, n * n_procs, 0)
    assert counts["slot_calls"] == 0  # the table reads tails and gaps itself
    # A refresh searches no gap after an appended placement (nor ever
    # without insertion), and one per other ready row after a placement
    # that filled a gap — however many placements a row waits through.
    expected = [
        others if scheduler.insertion and not appended else 0
        for appended, others in placements
    ]
    assert refreshes == expected
    # Admission searches one gap per cell, with insertion.
    admitted = n * n_procs if scheduler.insertion else 0
    assert counts["gap_searches"] == admitted + sum(expected)
    if scheduler.insertion:
        gaps = sum(1 for appended, _ in placements if not appended)
        assert n - gaps > gaps > 0
