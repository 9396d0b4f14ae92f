"""The one list pass: pinned prefix + priority heap == a brute-force rescan.

``incremental``, ``reactive`` and ``clustering`` all run
:func:`repro.sched.core.replay_prefix` + :func:`run_priority_list`; here that
pair is checked placement for placement against the definition it replaced
(rescan every task for ready ones, take the highest b-level), the schedule's
single per-task index is checked against a per-call sort, and an AST walk
keeps raw ``heapq`` loops from growing back beside the kernel.
"""

import ast
import pathlib
import random

import hypothesis.strategies as st
from hypothesis import given, settings

import repro.sched
from repro.graph.generators import FAMILIES
from repro.machine import MachineParams, make_machine
from repro.sched import Schedule, get_scheduler
from repro.sched.core import KernelState, SchedKernel, replay_prefix, run_priority_list
from repro.sched.serialize import schedule_to_dict

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=4.0, hop_latency=0.05)

family_st = st.sampled_from(sorted(FAMILIES))
machine_st = st.sampled_from([("hypercube", 4), ("mesh", 9), ("star", 5), ("bus", 3)]).map(
    lambda fam: make_machine(fam[0], fam[1], PARAMS)
)


def _pinned_set(prev: Schedule, rng: random.Random) -> set[str]:
    """A random ancestor-closed set that is a prefix of every timeline."""
    graph = prev.graph
    cut = {}
    for proc in range(prev.n_procs):
        names = [e.task for e in prev.timeline(proc)]
        cut[proc] = names[: rng.randint(0, len(names))]
    while True:
        pinned = {t for names in cut.values() for t in names}
        shrunk = False
        for proc, names in cut.items():
            for k, t in enumerate(names):
                if any(p not in pinned for p in graph.predecessors(t)):
                    cut[proc] = names[:k]
                    shrunk = True
                    break
        if not shrunk:
            return pinned


def _brute_force(prev: Schedule, pinned: set[str], held: set[str]) -> Schedule:
    """Rescan all tasks for ready ones, take max b-level — no heap, no counters."""
    graph = prev.graph
    kernel = SchedKernel(graph, prev.machine)
    state = KernelState(kernel, scheduler_name="prefix")
    topo_pos = {t: i for i, t in enumerate(graph.topological_order())}
    for t in sorted(pinned, key=lambda t: (prev.primary(t).start, topo_pos[t])):
        state.place(kernel.index[t], prev.primary(t).proc, prev.primary(t).start)
    levels = kernel.b_levels_comm()
    done = set(pinned)
    while True:
        ready = [
            t
            for t in graph.task_names
            if t not in done
            and t not in held
            and all(p in done for p in graph.predecessors(t))
        ]
        if not ready:
            return state.sched
        task = max(ready, key=lambda t: (levels[t], -kernel.index[t]))
        ti = kernel.index[task]
        state.place(ti, *state.best_processor(ti))
        done.add(task)


@given(family_st, machine_st, st.sampled_from(["hlfet", "etf", "mh"]), st.integers(0, 9999))
@settings(max_examples=60, deadline=None)
def test_pinned_prefix_pass_equals_brute_force(family, machine, base, seed):
    graph = FAMILIES[family]()
    prev = get_scheduler(base).schedule(graph, machine)
    rng = random.Random(seed)
    pinned = _pinned_set(prev, rng)
    # Held back: nothing, or one unpinned task and everything downstream of it.
    held: set[str] = set()
    loose = [t for t in graph.task_names if t not in pinned]
    if loose and rng.random() < 0.5:
        root = rng.choice(loose)
        held = {root} | graph.transitive_closure()[root]

    kernel = SchedKernel(graph, machine)
    state = KernelState(kernel, scheduler_name="prefix")
    placed = replay_prefix(state, prev, pinned)
    assert placed == {kernel.index[t] for t in pinned}
    prio = kernel.priority_array(kernel.b_levels_comm())
    got = run_priority_list(
        kernel,
        state,
        key=lambda i: (-prio[i], i),
        pick_processor=state.best_processor,
        placed=placed,
        held={kernel.index[t] for t in held},
    )

    assert schedule_to_dict(got) == schedule_to_dict(_brute_force(prev, pinned, held))
    assert set(got.scheduled_tasks()) == set(graph.task_names) - held
    for t in pinned:  # replayed verbatim
        assert got.primary(t) == prev.primary(t)


@given(family_st, machine_st)
@settings(max_examples=40, deadline=None)
def test_placements_are_finish_then_proc_ordered_under_duplication(family, machine):
    schedule = get_scheduler("dsh").schedule(FAMILIES[family](), machine)
    copies: dict[str, list] = {}
    for entry in schedule:  # per-processor timelines: an order unrelated to the index
        copies.setdefault(entry.task, []).append(entry)
    for task, inserted in copies.items():
        expected = sorted(inserted, key=lambda e: (e.finish, e.proc))
        assert schedule.placements(task) == expected
        assert schedule.primary(task) == expected[0]


def test_dsh_really_duplicates_on_some_family():
    machine = make_machine("hypercube", 4, PARAMS)
    assert any(
        get_scheduler("dsh").schedule(build(), machine).has_duplication()
        for build in FAMILIES.values()
    )


@given(st.permutations(range(5)), st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_copies_inserted_in_any_order_read_back_sorted(order, durations):
    graph = FAMILIES["chain"]()
    task = graph.task_names[0]
    schedule = Schedule(graph, make_machine("full", 5, PARAMS))
    for proc in order:  # one copy per processor, finishes tie where durations do
        schedule.add(task, proc, 0.0, float(durations[proc]))
    got = schedule.placements(task)
    assert got == sorted(got, key=lambda e: (e.finish, e.proc))
    assert got is not schedule.placements(task)  # a copy, not the live index
    assert schedule.primary(task) == got[0]


def test_heapq_is_imported_only_by_the_kernel():
    root = pathlib.Path(repro.sched.__file__).parent
    importers = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "heapq" for name in names):
                importers.add(path.name)
    assert importers - {"_reference.py"} == {"core.py"}  # the frozen reference may
