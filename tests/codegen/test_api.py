"""The public codegen API: ``generate`` / ``run`` / ``as_lowered`` accept a
project or a schedule."""

import pytest

from repro.codegen import as_lowered, generate, run
from repro.codegen.ir import LoweredProgram
from repro.errors import CodegenError
from repro.graph import DataflowGraph, flatten
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler

PARAMS = MachineParams(msg_startup=1.0, transmission_rate=2.0)


def chain_dataflow():
    g = DataflowGraph("api_demo")
    g.add_storage("x", initial=3.0)
    g.add_task("first", program="input x\noutput a\na := x + 1", work=1)
    g.add_storage("a")
    g.add_task("second", program="input a\noutput y\ny := a * 2", work=1)
    g.add_storage("y")
    for s, d in [("x", "first"), ("first", "a"), ("a", "second"), ("second", "y")]:
        g.connect(s, d)
    return g


def chain_design():
    return flatten(chain_dataflow())


@pytest.fixture
def schedule():
    return get_scheduler("mh").schedule(chain_design(), make_machine("full", 2, PARAMS))


@pytest.fixture
def project():
    from repro.env import BangerProject

    p = BangerProject("api_demo").set_design(chain_dataflow())
    p.set_machine("full", 2, PARAMS)
    return p


class TestAsLowered:
    def test_accepts_schedule(self, schedule):
        assert isinstance(as_lowered(schedule), LoweredProgram)

    def test_accepts_project(self, project):
        program = as_lowered(project)
        assert isinstance(program, LoweredProgram)
        assert program.design == "api_demo"

    def test_accepts_lowered_program(self, schedule):
        program = as_lowered(schedule)
        assert as_lowered(program) is program

    def test_rejects_other_types(self):
        with pytest.raises(CodegenError, match="expected a BangerProject"):
            as_lowered({"not": "a schedule"})


class TestGenerateAndRun:
    def test_generate_defaults_to_threads(self, schedule):
        source = generate(schedule)
        assert source == generate(schedule, target="threads")
        assert "def main" in source

    def test_generate_every_source_target(self, project):
        assert "def main" in generate(project, target="threads")
        assert "mpi4py" in generate(project, target="mpi")
        assert "#include" in generate(project, target="c")

    def test_generate_unknown_target(self, schedule):
        with pytest.raises(CodegenError, match="unknown codegen target"):
            generate(schedule, target="cobol")

    def test_run_inproc_and_threads_agree(self, schedule):
        assert run(schedule, target="inproc") == {"y": 8.0}
        assert run(schedule, target="threads") == {"y": 8.0}

    def test_run_accepts_inputs(self, schedule):
        assert run(schedule, target="inproc", inputs={"x": 9.0}) == {"y": 20.0}

    def test_project_and_schedule_generate_identically(self, project):
        via_project = generate(project, target="threads", scheduler="mh")
        via_schedule = generate(project.schedule("mh"), target="threads")
        assert via_project == via_schedule

    def test_module_doc_kwarg_flows_to_the_backend(self, schedule):
        source = generate(schedule, target="threads", module_doc="custom preamble")
        assert source.startswith('"""custom preamble\n"""')
