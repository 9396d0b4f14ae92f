"""The earliest-start table: always equal to recomputing every pair afresh.

ETF and DLS run :func:`repro.sched.core.run_start_table`; here the table
under it is driven one placement at a time and, before every pick, checked
cell for cell against the definition it replaced — a fresh
``earliest_start`` per ready task × processor, a brute-force minimum per row
and over all pairs.  Two mutants of the column refresh show the check can
fail, and a work count (not a timing) pins what the table saves: one
data-ready row per task, one cell per remaining row per placement.
"""

import collections

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph.generators import FAMILIES, random_layered
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler
from repro.sched.core import KernelState, SchedKernel, StartTable

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


@pytest.mark.parametrize("mutant", ["skips the refresh", "refreshes the wrong column"])
def test_check_catches_a_stale_column(monkeypatch, mutant):
    refresh = StartTable._refresh
    if mutant == "skips the refresh":
        monkeypatch.setattr(StartTable, "_refresh", lambda self, proc: None)
    else:
        monkeypatch.setattr(
            StartTable, "_refresh", lambda self, proc: refresh(self, proc ^ 1)
        )
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


@pytest.mark.parametrize("name", ["etf", "dls"])
def test_each_row_is_computed_once_and_each_placement_refreshes_one_column(monkeypatch, name):
    graph = random_layered(150, 8, edge_prob=0.1)
    machine = make_machine("hypercube", 16, PARAMS)
    n, n_procs = len(graph), machine.n_procs
    counts: collections.Counter = collections.Counter()
    widths: list[int] = []

    def counted(cls, method, tally):
        inner = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            tally(self, result)
            return result

        monkeypatch.setattr(cls, method, wrapper)

    counted(KernelState, "data_ready_row", lambda _, row: counts.update(rows=1, cells=len(row)))
    counted(KernelState, "data_ready_time", lambda *_: counts.update(single_cells=1))
    counted(KernelState, "slot", lambda *_: counts.update(slots=1))
    counted(StartTable, "pick", lambda table, _: widths.append(len(table.rows)))

    assert get_scheduler(name).schedule(graph, machine).is_complete()

    assert len(widths) == n and max(widths) > 8  # rows did sit in the table
    assert (counts["rows"], counts["cells"], counts["single_cells"]) == (n, n * n_procs, 0)
    # One slot per cell on admission, then one per *other* ready row per
    # placement — however many placements a row waits through.
    refreshed = counts["slots"] - n * n_procs
    assert refreshed == sum(width - 1 for width in widths) <= n * max(widths)
