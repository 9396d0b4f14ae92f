"""Tests for whole-program generation (Python, mpi4py-style, C-like)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.codegen import generate, run_generated
from repro.errors import CodegenError
from repro.graph import DataflowGraph, TaskGraph, flatten
from repro.machine import MachineParams, make_machine, single_processor
from repro.sched import Schedule, get_scheduler
from repro.sim import run_dataflow
from tests.sim.test_threaded import failing_producer_schedule

SRC = pathlib.Path(__file__).parent.parent.parent / "src"
PARAMS = MachineParams(msg_startup=1.0, transmission_rate=2.0)


def diamond_design():
    g = DataflowGraph("gen_demo")
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
    for s, d in [
        ("x", "split"), ("split", "a"), ("split", "b"), ("a", "inc"), ("b", "dec"),
        ("inc", "p"), ("dec", "q"), ("p", "join"), ("q", "join"), ("join", "y"),
    ]:
        g.connect(s, d)
    return flatten(g)


def schedule_for(tg, n_procs=3, scheduler="roundrobin"):
    machine = single_processor(PARAMS) if n_procs == 1 else make_machine("full", n_procs, PARAMS)
    return get_scheduler(scheduler).schedule(tg, machine)


class TestGeneratePython:
    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    @pytest.mark.parametrize("scheduler", ["roundrobin", "mh", "dsh"])
    def test_generated_matches_reference(self, n_procs, scheduler):
        tg = diamond_design()
        schedule = schedule_for(tg, n_procs, scheduler)
        source = generate(schedule, target="threads")
        assert run_generated(source) == run_dataflow(tg).outputs

    def test_inputs_override(self):
        tg = diamond_design()
        source = generate(schedule_for(tg), target="threads")
        assert run_generated(source, {"x": 2.0}) == {"y": 6.0}

    def test_arrays_through_generated_channels(self):
        g = DataflowGraph("vecgen")
        g.add_storage("v", initial=np.array([1.0, 2.0, 3.0]), size=3)
        g.add_task("scale", program="input v\noutput w\nw := v * 10", work=3)
        g.add_storage("w", size=3)
        g.add_task("total", program="input w\noutput t\nt := sum(w)", work=3)
        g.add_storage("t")
        g.connect("v", "scale")
        g.connect("scale", "w")
        g.connect("w", "total")
        g.connect("total", "t")
        tg = flatten(g)
        source = generate(schedule_for(tg, 2), target="threads")
        assert run_generated(source) == {"t": 60.0}

    def test_module_doc_mentions_design_and_machine(self):
        tg = diamond_design()
        schedule = schedule_for(tg)
        source = generate(schedule, target="threads")
        assert "gen_demo" in source
        assert "full(3)" in source
        assert "Predicted makespan" in source

    def test_missing_program_rejected(self):
        tg = TaskGraph()
        tg.add_task("bare", work=1)
        machine = single_processor(PARAMS)
        s = Schedule(tg, machine)
        s.add("bare", 0, 0.0, 1.0)
        with pytest.raises(CodegenError, match="no PITS program"):
            generate(s, target="threads")

    def test_generated_source_compiles_standalone(self):
        source = generate(schedule_for(diamond_design()), target="threads")
        compile(source, "<gen>", "exec")

    def test_duplication_generates_correctly(self):
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
        assert run_generated(generate(s, target="threads")) == {"y": 8.0}


class TestGenerateMPI:
    def test_compiles(self):
        source = generate(schedule_for(diamond_design()), target="mpi")
        compile(source, "<mpi>", "exec")

    def test_uses_mpi4py_idioms(self):
        source = generate(schedule_for(diamond_design()), target="mpi")
        assert "from mpi4py import MPI" in source
        assert "comm = MPI.COMM_WORLD" in source
        assert "comm.Get_rank()" in source
        assert "comm.send(" in source
        assert "comm.recv(" in source
        assert "mpiexec -n 3" in source

    def test_rank_blocks_cover_used_procs(self):
        schedule = schedule_for(diamond_design())
        source = generate(schedule, target="mpi")
        from repro.codegen.ir import lower_steps

        for proc in lower_steps(schedule)[0]:
            assert f"rank == {proc}" in source

    def test_tags_pair_up(self):
        import re

        source = generate(schedule_for(diamond_design(), 3), target="mpi")
        send_tags = sorted(re.findall(r"comm\.send\(.*tag=(\d+)\)", source))
        recv_tags = sorted(re.findall(r"comm\.recv\(.*tag=(\d+)\)", source))
        assert send_tags == recv_tags
        assert len(send_tags) == len(set(send_tags))


class TestGenerateC:
    def test_structure(self):
        source = generate(schedule_for(diamond_design()), target="c")
        assert "#include" in source
        assert "void task_split" in source
        assert "int main" in source
        assert "send(" in source and "recv(" in source
        assert "node_id()" in source

    def test_pits_constructs_render(self):
        g = DataflowGraph("cgen")
        g.add_task("t", program=(
            "input a\noutput x\nlocal i\nx := 0\n"
            "for i := 1 to a do\nif i % 2 = 0 then\nx := x + i\nend\nend\n"
            "while x > 100 do\nx := x - 1\nend\n"
            "repeat\nx := x + 0\nuntil true"
        ))
        g.add_storage("a_in", data="a", initial=5.0)
        g.add_storage("x_out", data="x")
        g.connect("a_in", "t")
        g.connect("t", "x_out")
        source = generate(schedule_for(flatten(g), 1), target="c")
        assert "for (" in source
        assert "while (" in source
        assert "do {" in source
        assert "} else" not in source  # no else in this program
        assert "== 0" in source

    def test_missing_program_rejected(self):
        tg = TaskGraph()
        tg.add_task("bare", work=1)
        machine = single_processor(PARAMS)
        s = Schedule(tg, machine)
        s.add("bare", 0, 0.0, 1.0)
        with pytest.raises(CodegenError):
            generate(s, target="c")


def test_a_standalone_program_exits_with_its_task_error(tmp_path):
    """Run as ``python prog.py``, the emitted program of a design whose
    producer divides by zero ends with that error: the consumer waiting
    for the producer's message stops, and no thread keeps the process up."""
    path = tmp_path / "prog.py"
    path.write_text(generate(failing_producer_schedule(), target="threads"))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run(
            [sys.executable, str(path)], env=env, capture_output=True,
            text=True, timeout=10,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the emitted program was still running after 10 s")
    assert done.returncode != 0
    assert "CalcRuntimeError: division by zero" in done.stderr, done.stderr
