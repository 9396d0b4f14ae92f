"""Tests for the lowered message-passing program and the real threaded executor."""

import time

import numpy as np
import pytest

from repro.codegen import run
from repro.errors import CalcRuntimeError, SimError
from repro.graph import DataflowGraph, TaskGraph, flatten
from repro.machine import MachineParams, make_machine, single_processor
from repro.sched import Schedule, get_scheduler
from repro.codegen.ir import lower_steps
from repro.sim import run_dataflow, run_parallel

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


def failing_producer_schedule():
    """producer (processor 0) divides by a zero input; consumer (processor
    1) blocks on its message.  Static analysis cannot see the zero."""
    g = DataflowGraph("boom")
    g.add_storage("d", initial=0.0)
    g.add_task("producer", program="input d\noutput x\nx := 1 / d", work=1)
    g.add_storage("x")
    g.add_task("consumer", program="input x\noutput y\ny := x + 1", work=1)
    g.add_storage("y")
    for src, dst in [("d", "producer"), ("producer", "x"),
                     ("x", "consumer"), ("consumer", "y")]:
        g.connect(src, dst)
    schedule = get_scheduler("roundrobin").schedule(
        flatten(g), make_machine("full", 2, PARAMS)
    )
    assert schedule.proc_of("producer") != schedule.proc_of("consumer")
    return schedule


@pytest.mark.parametrize(
    "execute",
    [run_parallel, lambda schedule: run(schedule, target="inproc")],
    ids=["run_parallel", "inproc"],
)
def test_failing_task_raises_its_own_error_without_hanging(execute):
    schedule = failing_producer_schedule()
    started = time.perf_counter()
    with pytest.raises(CalcRuntimeError, match="division by zero"):
        execute(schedule)
    assert time.perf_counter() - started < 2.0


class TestThreadedExecution:
    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    def test_matches_sequential_reference(self, n_procs):
        tg, schedule = scheduled_design(n_procs=n_procs)
        seq = run_dataflow(tg)
        par = run_parallel(schedule)
        assert par.outputs == seq.outputs

    @pytest.mark.parametrize("scheduler", ["mh", "hlfet", "roundrobin", "dsh", "etf"])
    def test_every_scheduler_runs_correctly(self, scheduler):
        tg, schedule = scheduled_design(n_procs=3, scheduler=scheduler)
        par = run_parallel(schedule)
        assert par.outputs == {"y": 75.0}

    def test_inputs_override(self):
        _, schedule = scheduled_design()
        par = run_parallel(schedule, {"x": 2.0})
        # (1+1) * (4-1) = 6
        assert par.outputs == {"y": 6.0}

    def test_message_count_positive_when_spread(self):
        _, schedule = scheduled_design(n_procs=4, scheduler="roundrobin")
        par = run_parallel(schedule)
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
        par = run_parallel(schedule)
        assert par.outputs["t"] == 45.0

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
        par = run_parallel(s)
        assert par.outputs == {"y": 8.0}
        assert par.messages_sent == 0  # local duplicate feeds the consumer

    def test_failure_in_task_propagates(self):
        tg = TaskGraph()
        tg.add_task("boom", work=1, program="output x\nx := 1 / 0")
        tg.graph_outputs = {"x": "boom"}
        machine = single_processor(PARAMS)
        s = Schedule(tg, machine)
        s.add("boom", 0, 0.0, 1.0)
        from repro.errors import CalcRuntimeError

        with pytest.raises(CalcRuntimeError, match="division by zero"):
            run_parallel(s)
