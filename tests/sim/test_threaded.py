"""Tests for the lowered message-passing program and the one executor that
runs it on real threads (``repro.codegen.backends.inproc.run_workers``),
through each of its entry points."""

import sys
import threading

import numpy as np
import pytest

from repro.codegen import get_backend, lower, run, trace_problems
from repro.env.project import BangerProject
from repro.errors import CalcRuntimeError, CodegenError, SimError
from repro.graph import DataflowGraph, TaskGraph, flatten
from repro.machine import MachineParams, make_machine, single_processor
from repro.sched import Schedule, get_scheduler
from repro.codegen.ir import lower_steps
from repro.sim import run_dataflow

PARAMS = MachineParams(msg_startup=1.0, transmission_rate=2.0)


def scheduled_design(n_procs=4, scheduler="mh"):
    """A diamond of PITS tasks, scheduled onto a small machine."""
    g = DataflowGraph("diamondcalc")
    g.add_storage("x", initial=8.0)
    g.add_task("split", program="input x\noutput a, b\na := x / 2\nb := x * 2", work=2)
    g.add_storage("a")
    g.add_storage("b")
    g.add_task("inc", program="input a\noutput p\np := a + 1", work=1)
    g.add_task("dec", program="input b\noutput q\nq := b - 1", work=1)
    g.add_storage("p")
    g.add_storage("q")
    g.add_task("join", program="input p, q\noutput y\ny := p * q", work=2)
    g.add_storage("y")
    g.connect("x", "split")
    g.connect("split", "a")
    g.connect("split", "b")
    g.connect("a", "inc")
    g.connect("b", "dec")
    g.connect("inc", "p")
    g.connect("dec", "q")
    g.connect("p", "join")
    g.connect("q", "join")
    g.connect("join", "y")
    tg = flatten(g)
    machine = (
        single_processor(PARAMS) if n_procs == 1 else make_machine("full", n_procs, PARAMS)
    )
    return tg, get_scheduler(scheduler).schedule(tg, machine)


def all_steps(schedule):
    procs, _channels, _outputs = lower_steps(schedule)
    return [step for proc in sorted(procs) for step in procs[proc]]


class TestLowerSteps:
    def test_steps_cover_all_tasks(self):
        tg, schedule = scheduled_design()
        tasks = [s.task for s in all_steps(schedule)]
        assert sorted(tasks) == sorted(tg.task_names)

    def test_sends_match_recvs(self):
        _, schedule = scheduled_design(scheduler="roundrobin")
        steps = all_steps(schedule)
        sends = {step.send_channel(s) for step in steps for s in step.sends}
        recvs = {step.recv_channel(r) for step in steps for r in step.recvs}
        assert sends == recvs
        assert sends == set(lower_steps(schedule)[1])

    def test_local_wins_over_message(self):
        _, schedule = scheduled_design(n_procs=1)
        assert lower_steps(schedule)[1] == ()
        assert all(not s.recvs for s in all_steps(schedule))

    def test_graph_inputs_attached(self):
        _, schedule = scheduled_design()
        split = next(s for s in all_steps(schedule) if s.task == "split")
        assert split.graph_inputs == ("x",)

    def test_output_sources(self):
        _, schedule = scheduled_design()
        _procs, _channels, output_sources = lower_steps(schedule)
        assert "y" in output_sources
        task, proc = output_sources["y"]
        assert task == "join"

    def test_incomplete_schedule_rejected(self):
        tg = TaskGraph()
        tg.add_task("a")
        machine = make_machine("full", 2, PARAMS)
        with pytest.raises(SimError, match="incomplete"):
            lower_steps(Schedule(tg, machine))


def two_task_project(producer: str, arc: str) -> BangerProject:
    """``producer`` (processor 0 under round-robin) feeds ``consumer``
    (processor 1) through storage ``arc``; ``d`` holds 0."""
    g = DataflowGraph("boom")
    g.add_storage("d", initial=0.0)
    g.add_task("producer", program=producer, work=1)
    g.add_storage(arc)
    g.add_task("consumer", program=f"input {arc}\noutput y\ny := {arc} + 1", work=1)
    g.add_storage("y")
    for src, dst in [("d", "producer"), ("producer", arc),
                     (arc, "consumer"), ("consumer", "y")]:
        g.connect(src, dst)
    project = BangerProject("boom").set_design(g)
    project.set_machine(make_machine("full", 2, PARAMS))
    schedule = project.schedule("roundrobin")
    assert schedule.proc_of("producer") != schedule.proc_of("consumer")
    return project


def failing_producer_project() -> BangerProject:
    """The producer divides by the zero input; the consumer blocks on its
    message.  Static analysis cannot see the zero."""
    return two_task_project("input d\noutput x\nx := 1 / d", "x")


def failing_producer_schedule():
    return failing_producer_project().schedule("roundrobin")


#: Every door to an in-process run of a project, by test id.
RUNS = {
    "run_parallel": lambda project: project.run_parallel(scheduler="roundrobin"),
    "inproc": lambda project: run(project.schedule("roundrobin"), target="inproc"),
    "threads": lambda project: run(project.schedule("roundrobin"), target="threads"),
}


def raised_within(seconds, call):
    """The exception ``call()`` raised; fails if it is still running after
    ``seconds`` (it runs in a daemon thread, so a hang cannot wedge the suite)."""
    outcome = []

    def target():
        try:
            call()
        except BaseException as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome[0]


@pytest.mark.parametrize("door", sorted(RUNS))
def test_failing_task_raises_its_own_error_without_hanging(door):
    project = failing_producer_project()
    exc = raised_within(2.0, lambda: RUNS[door](project))
    assert isinstance(exc, CalcRuntimeError), repr(exc)
    assert "division by zero" in str(exc)


@pytest.mark.parametrize("door", sorted(RUNS))
def test_a_sent_variable_its_task_did_not_produce_is_a_typed_error(door):
    """The producer declares ``x`` while its arc carries ``z`` (lint's
    XL302, which lowering does not gate on)."""
    project = two_task_project("input d\noutput x\nx := d", "z")
    exc = raised_within(2.0, lambda: RUNS[door](project))
    assert isinstance(exc, CodegenError), repr(exc)
    assert str(exc) == "task 'producer' did not produce 'z'"


def wide_schedule(divisor: float):
    """``src`` fans out to twelve tasks (the last divides by ``divisor``)
    that ``join`` sums, round-robin on eight processors: more workers than
    cores, and every fan-out result a message."""
    tg = TaskGraph()
    tg.add_task("src", work=1, program="input d\noutput x\nx := d + 1")
    tg.graph_inputs = {"d": ["src"]}
    tg.input_values = {"d": divisor}
    parts = [f"p{i}" for i in range(12)]
    for i, part in enumerate(parts):
        body = f"{part} := x * {i}" if i < 11 else f"{part} := 1 / (x - 1)"
        tg.add_task(part, work=1, program=f"input x\noutput {part}\n{body}")
        tg.add_edge("src", part, var="x")
    tg.add_task("join", work=1, program=(
        f"input {', '.join(parts)}\noutput y\ny := {' + '.join(parts)}"))
    for part in parts:
        tg.add_edge(part, "join", var=part)
    tg.graph_outputs = {"y": "join"}
    return get_scheduler("roundrobin").schedule(tg, make_machine("full", 8, PARAMS))


def test_a_wide_run_under_fast_thread_switching():
    """With threads switching every microsecond: every run's trace numbers
    its events once each and obeys the plan, and a failing task still ends
    its run with its own error, leaving no processor thread behind."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        program = lower(wide_schedule(2.0))
        for _ in range(5):
            result = get_backend("inproc").execute(program)
            assert result.outputs == {"y": 3.0 * sum(range(11)) + 0.5}
            assert [e.seq for e in result.events] == list(range(len(result.events)))
            assert trace_problems(program, result.events) == []
        failing = lower(wide_schedule(0.0))
        for target in ("inproc", "threads"):
            exc = raised_within(5.0, lambda: run(failing, target=target))
            assert isinstance(exc, CalcRuntimeError), repr(exc)
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in threading.enumerate() if t.name.startswith("proc")]


def parallel(schedule, inputs=None):
    """The threaded run of ``schedule`` with its trace, on ``inproc``."""
    return get_backend("inproc").execute(lower(schedule), inputs)


class TestThreadedExecution:
    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    def test_matches_sequential_reference(self, n_procs):
        tg, schedule = scheduled_design(n_procs=n_procs)
        seq = run_dataflow(tg)
        assert run(schedule, target="inproc") == seq.outputs

    @pytest.mark.parametrize("scheduler", ["mh", "hlfet", "roundrobin", "dsh", "etf"])
    def test_every_scheduler_runs_correctly(self, scheduler):
        tg, schedule = scheduled_design(n_procs=3, scheduler=scheduler)
        assert run(schedule, target="inproc") == {"y": 75.0}

    def test_inputs_override(self):
        _, schedule = scheduled_design()
        # (1+1) * (4-1) = 6
        assert run(schedule, inputs={"x": 2.0}, target="inproc") == {"y": 6.0}

    def test_message_count_positive_when_spread(self):
        _, schedule = scheduled_design(n_procs=4, scheduler="roundrobin")
        par = parallel(schedule)
        assert par.procs_used == lower(schedule).procs_used()
        assert par.messages_sent == len(lower_steps(schedule)[1])
        assert par.messages_sent > 0

    def test_arrays_travel_through_queues(self):
        g = DataflowGraph("vecpar")
        g.add_storage("v", initial=np.arange(6, dtype=float), size=6)
        g.add_task("scale", program="input v\noutput w\nw := v * 3", work=6)
        g.add_storage("w", size=6)
        g.add_task("total", program="input w\noutput t\nt := sum(w)", work=6)
        g.add_storage("t")
        g.connect("v", "scale")
        g.connect("scale", "w")
        g.connect("w", "total")
        g.connect("total", "t")
        tg = flatten(g)
        machine = make_machine("full", 2, PARAMS)
        schedule = get_scheduler("roundrobin").schedule(tg, machine)
        assert run(schedule, target="inproc")["t"] == 45.0

    def test_duplication_execution(self):
        """A duplicated producer runs twice; results stay correct."""
        tg = TaskGraph()
        tg.add_task("src", work=1, program="output x\nx := 7")
        tg.add_task("use", work=1, program="input x\noutput y\ny := x + 1")
        tg.add_edge("src", "use", var="x", size=100)
        tg.graph_outputs = {"y": "use"}
        machine = make_machine("full", 2, MachineParams(msg_startup=10.0))
        s = Schedule(tg, machine)
        s.add("src", 0, 0.0, 1.0)
        s.add("src", 1, 0.0, 1.0)
        s.add("use", 1, 1.0, 2.0)
        par = parallel(s)
        assert par.outputs == {"y": 8.0}
        assert par.messages_sent == 0  # local duplicate feeds the consumer

    def test_failure_in_task_propagates(self):
        # a zero the divisor reads from an input: `1 / 0` written out is a
        # static error, which lowering refuses before anything runs
        tg = TaskGraph()
        tg.add_task("boom", work=1, program="input d\noutput x\nx := 1 / d")
        tg.graph_inputs = {"d": ["boom"]}
        tg.input_values = {"d": 0.0}
        tg.graph_outputs = {"x": "boom"}
        machine = single_processor(PARAMS)
        s = Schedule(tg, machine)
        s.add("boom", 0, 0.0, 1.0)
        with pytest.raises(CalcRuntimeError, match="division by zero"):
            run(s, target="inproc")
