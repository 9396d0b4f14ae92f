"""The lowering IR: serialization round trips, content addressing, and
determinism (including across interpreter processes with different hash
seeds — the property the service cache and daemon coalescing lean on)."""

import subprocess
import sys
import pathlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.codegen.ir import IR_VERSION, LoweredProgram, lower
from repro.errors import CodegenError
from repro.graph import DataflowGraph, flatten
from repro.graph.generators import random_layered
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler

ROOT = pathlib.Path(__file__).parent.parent.parent
PARAMS = MachineParams(msg_startup=1.0, transmission_rate=2.0)


def diamond_design():
    g = DataflowGraph("ir_demo")
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


def schedule_for(tg, n_procs=3, scheduler="mh"):
    machine = make_machine("full", n_procs, PARAMS)
    return get_scheduler(scheduler).schedule(tg, machine)


def programmed_layered(seed: int):
    """A random weight-only graph with synthesized straight-line programs."""
    from repro.conformance.oracles import _with_programs

    tg = _with_programs(random_layered(10, 3, edge_prob=0.5, seed=seed))
    assert tg is not None
    return tg


class TestLowering:
    def test_program_shape(self):
        program = lower(schedule_for(diamond_design()))
        assert program.design == "ir_demo"
        assert program.n_procs == 3
        assert program.scheduler == "mh"
        assert program.makespan > 0
        assert program.task_order == ("split", "inc", "dec", "join")
        assert set(program.tasks) == {"split", "inc", "dec", "join"}
        assert program.step_count() == 4
        assert list(program.all_steps())  # iterates sorted procs
        assert program.output_sources.keys() == {"y"}

    def test_empty_procs_omitted(self):
        program = lower(schedule_for(diamond_design(), 4, "serial"))
        assert program.procs_used() == [0]
        assert program.steps(3) == ()

    def test_channels_deduplicated(self):
        program = lower(schedule_for(diamond_design()))
        assert len(program.channels) == len(set(program.channels))
        planned = {
            step.recv_channel(recv)
            for step in program.all_steps()
            for recv in step.recvs
        }
        assert planned == set(program.channels)

    def test_missing_program_rejected(self):
        from repro.graph import TaskGraph
        from repro.machine import single_processor
        from repro.sched import Schedule

        tg = TaskGraph()
        tg.add_task("bare", work=1)
        s = Schedule(tg, single_processor(PARAMS))
        s.add("bare", 0, 0.0, 1.0)
        with pytest.raises(CodegenError, match="no PITS program"):
            lower(s)


class TestSerialization:
    def test_round_trip_is_identity(self):
        program = lower(schedule_for(diamond_design()))
        doc = program.to_dict()
        reloaded = LoweredProgram.from_dict(doc)
        assert reloaded.to_dict() == doc
        assert reloaded.content_hash() == program.content_hash()
        assert reloaded.procs == program.procs
        assert reloaded.channels == program.channels

    def test_document_envelope(self):
        doc = lower(schedule_for(diamond_design())).to_dict()
        assert doc["type"] == "lowered-program"
        assert doc["format"] == IR_VERSION

    def test_wrong_type_rejected(self):
        with pytest.raises(CodegenError, match="not a lowered-program"):
            LoweredProgram.from_dict({"type": "schedule"})

    def test_future_format_rejected(self):
        doc = lower(schedule_for(diamond_design())).to_dict()
        doc["format"] = IR_VERSION + 1
        with pytest.raises(CodegenError, match="unsupported"):
            LoweredProgram.from_dict(doc)


class TestContentHash:
    def test_stable_across_lowerings(self):
        a = lower(schedule_for(diamond_design()))
        b = lower(schedule_for(diamond_design()))
        assert a.content_hash() == b.content_hash()
        assert a.to_dict() == b.to_dict()

    def test_sensitive_to_schedule(self):
        mh = lower(schedule_for(diamond_design(), scheduler="mh"))
        serial = lower(schedule_for(diamond_design(), scheduler="serial"))
        assert mh.content_hash() != serial.content_hash()

    def test_sensitive_to_programs(self):
        tg = diamond_design()
        baseline = lower(schedule_for(tg)).content_hash()
        tg.task("join").program = "input p, q\noutput y\ny := p + q"
        assert lower(schedule_for(tg)).content_hash() != baseline

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_lowering_is_deterministic(self, seed):
        tg = programmed_layered(seed)
        schedule = get_scheduler("roundrobin").schedule(
            tg, make_machine("full", 3, PARAMS)
        )
        again = get_scheduler("roundrobin").schedule(
            tg, make_machine("full", 3, PARAMS)
        )
        assert lower(schedule).to_dict() == lower(again).to_dict()

    @pytest.mark.parametrize("seed", [0, 13])
    def test_hash_is_stable_across_processes(self, seed):
        """The cache key survives interpreter restarts and hash-seed churn."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from tests.codegen.test_ir import programmed_layered, PARAMS\n"
            "from repro.codegen.ir import lower\n"
            "from repro.machine import make_machine\n"
            "from repro.sched import get_scheduler\n"
            "tg = programmed_layered({seed})\n"
            "s = get_scheduler('roundrobin').schedule(tg, make_machine('full', 3, PARAMS))\n"
            "print(lower(s).content_hash())\n"
        ).format(src=str(ROOT / "src"), seed=seed)
        hashes = set()
        for hashseed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hashseed,
                    "PYTHONPATH": f"{ROOT / 'src'}:{ROOT}",
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            hashes.add(proc.stdout.strip())
        local = lower(
            get_scheduler("roundrobin").schedule(
                programmed_layered(seed), make_machine("full", 3, PARAMS)
            )
        ).content_hash()
        hashes.add(local)
        assert len(hashes) == 1, f"content hash varies across processes: {hashes}"


def test_codegen_never_imports_sim():
    """One dependency direction: ``sim`` reads ``codegen.ir``, never the
    reverse (``codegen`` used to loop back through ``sim.plan``)."""
    import ast
    import pathlib

    import repro.codegen

    root = pathlib.Path(repro.codegen.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names = [f"repro.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == "repro.sim" or n.startswith("repro.sim.") for n in names):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
