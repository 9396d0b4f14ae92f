"""The ``/codegen`` daemon op: source for any emitting backend, optional
in-process runs, IR-hash coalescing, and clean error mapping."""

import json

import numpy as np
import pytest

from repro.calc import run_program
from repro.client import ServerError
from repro.env.project import BangerProject
from repro.errors import CalcTypeError
from repro.graph.dataflow import DataflowGraph
from repro.machine import MachineParams
from repro.server.ops import OpError, coalesce_key, execute, op_codegen
from repro.server.workers import serve
from tests.sim.test_threaded import failing_producer_project, two_task_project

A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
B = np.array([1.0, 2.0, 3.0])


class TestOpCodegen:
    def test_threads_source(self, project_doc):
        doc = op_codegen({"project": project_doc, "target": "threads"})
        assert doc["type"] == "banger-codegen"
        assert doc["target"] == "threads"
        assert doc["scheduler"] == "mh"
        assert doc["makespan"] > 0
        assert "def main" in doc["source"]
        assert len(doc["ir_hash"]) == 64

    def test_default_target_is_threads(self, project_doc):
        assert op_codegen({"project": project_doc})["target"] == "threads"

    def test_mpi_and_c_sources(self, project_doc):
        assert "mpi4py" in op_codegen(
            {"project": project_doc, "target": "mpi"}
        )["source"]
        assert "#include" in op_codegen(
            {"project": project_doc, "target": "c"}
        )["source"]

    def test_inproc_has_no_source(self, project_doc):
        doc = op_codegen({"project": project_doc, "target": "inproc"})
        assert "source" not in doc
        assert "outputs" not in doc

    def test_ir_hash_is_stable_and_target_free(self, project_doc):
        hashes = {
            op_codegen({"project": project_doc, "target": t})["ir_hash"]
            for t in ("threads", "inproc", "mpi", "c")
        }
        assert len(hashes) == 1, "one IR, one hash, whatever the target"

    def test_unknown_target_is_op_error(self, project_doc):
        with pytest.raises(OpError, match="unknown codegen target"):
            op_codegen({"project": project_doc, "target": "fortran"})

    def test_non_string_target_rejected(self, project_doc):
        with pytest.raises(OpError, match="must be a backend name"):
            op_codegen({"project": project_doc, "target": 7})

    def test_run_on_non_runnable_target_rejected(self, project_doc):
        with pytest.raises(OpError, match="cannot run in-process"):
            op_codegen({"project": project_doc, "target": "mpi", "run": True})

    def test_run_without_inputs_is_op_error(self, project_doc):
        # the LU project's graph inputs (A, b) have no stored defaults
        with pytest.raises(OpError, match="missing graph input"):
            op_codegen({"project": project_doc, "target": "inproc", "run": True})

    @pytest.mark.parametrize("target", ["threads", "inproc"])
    def test_both_runnable_targets_refuse_missing_inputs_alike(self, project_doc, target):
        """The threads program is neither emitted nor run without them."""
        body = _run_body(project_doc, target)
        assert serve(execute, "codegen", body) == (
            "user_error", "OpError", "missing graph input value(s): A, b")


def _vector_project(program: str) -> dict:
    """One task reading the vector ``v`` = [1, 2, 3] into ``y``."""
    design = DataflowGraph("subs")
    design.add_storage("v", data="v", initial=B)
    design.add_task("t", program=program)
    design.add_storage("y", data="y")
    design.connect("v", "t")
    design.connect("t", "y")
    project = BangerProject("subs").set_design(design)
    project.set_machine("hypercube", 2, MachineParams())
    return project.to_dict()


@pytest.mark.parametrize("sub, shown", [("1e308 * 10", "inf"), ("0 * (1e308 * 10)", "nan")])
def test_a_non_finite_subscript_is_one_typed_error_at_both_engines(sub, shown):
    """The interpreter's trial run and the generated code's run refuse an
    infinite or NaN subscript alike, as a ``CalcTypeError``."""
    program = f"input v\noutput y\ny := v[{sub}]"
    with pytest.raises(CalcTypeError, match=f"line 3: subscript {shown} is not an integer"):
        run_program(program, v=B)
    payload = {"project": _vector_project(program), "target": "inproc", "run": True}
    with pytest.raises(CalcTypeError, match=f"subscript {shown} is not an integer"):
        execute("codegen", payload)


def test_a_task_error_on_the_threads_target_is_the_task_error():
    """The default target runs its task functions on the one executor: a
    failing task's own typed error, not a ``KeyError`` for the output it
    never stored."""
    payload = {"project": _vector_project("input v\noutput y\ny := v[1e308 * 10]"),
               "run": True}
    with pytest.raises(CalcTypeError, match="subscript inf is not an integer"):
        execute("codegen", payload)


def test_a_string_minus_a_vector_is_a_typed_error_on_inproc():
    """``inproc`` runs the interpreter, so the typed error reaches the
    daemon as a 400, not numpy's untyped one as a 500."""
    program = 'input v\noutput y\ny := "s" - v'
    body = _run_body(_vector_project(program), "inproc")
    assert serve(execute, "codegen", body) == (
        "user_error", "CalcTypeError", "line 3: operator - expects a number, got str")


def _run_body(doc: dict, target: str, **fields) -> bytes:
    return json.dumps(
        {"project": doc, "target": target, "run": True, **fields}
    ).encode()


class TestCoalesceKey:
    def test_same_request_same_key(self, project_doc):
        a = coalesce_key("codegen", {"project": project_doc, "target": "threads"})
        b = coalesce_key("codegen", {"project": dict(project_doc), "target": "threads"})
        assert a == b

    def test_target_splits_the_key(self, project_doc):
        keys = {
            coalesce_key("codegen", {"project": project_doc, "target": t})
            for t in ("threads", "inproc", "mpi", "c")
        }
        assert len(keys) == 4

    def test_run_flag_splits_the_key(self, project_doc):
        plain = coalesce_key("codegen", {"project": project_doc, "target": "inproc"})
        running = coalesce_key(
            "codegen", {"project": project_doc, "target": "inproc", "run": True}
        )
        assert plain != running

    def test_an_unknown_extra_field_splits_the_key(self, project_doc):
        plain = coalesce_key("codegen", {"project": project_doc})
        extra = coalesce_key("codegen", {"project": project_doc, "future_option": 1})
        assert plain != extra

    def test_scheduler_splits_the_key(self, project_doc):
        mh = coalesce_key("codegen", {"project": project_doc, "scheduler": "mh"})
        rr = coalesce_key(
            "codegen", {"project": project_doc, "scheduler": "roundrobin"}
        )
        assert mh != rr


class TestOverTheWire:
    @pytest.fixture
    def harness(self, daemon_factory):
        return daemon_factory(workers=0)

    def test_codegen_roundtrip(self, harness, project_doc):
        doc = harness.client.codegen(project_doc, target="threads")
        assert doc["type"] == "banger-codegen"
        assert "def main" in doc["source"]

    def test_codegen_error_is_http_error(self, harness, project_doc):
        with pytest.raises(ServerError):
            harness.client.codegen(project_doc, target="fortran")

    @pytest.mark.parametrize("target", ["threads", "inproc"])
    def test_a_run_without_inputs_is_a_400(self, harness, project_doc, target):
        status, reply = harness.post_bytes("/codegen", _run_body(project_doc, target))
        assert status == 400
        assert "missing graph input value(s): A, b" in reply.decode()

    def test_repeat_request_is_coalesced(self, harness, project_doc):
        first = harness.client.codegen(project_doc, target="threads")
        second = harness.client.codegen(project_doc, target="threads")
        assert first == second
        metrics = harness.client.metrics()
        # identical requests never reach the service twice
        assert metrics["server"]["by_disposition"].get("cache", 0) >= 1, metrics

    @pytest.mark.parametrize("target", ["threads", "inproc"])
    def test_a_sent_variable_its_task_did_not_produce_is_a_400(self, harness, target):
        doc = two_task_project("input d\noutput x\nx := d", "z").to_dict()
        status, reply = harness.post_bytes(
            "/codegen", _run_body(doc, target, scheduler="roundrobin"))
        assert status == 400
        assert "task 'producer' did not produce 'z'" in reply.decode()

    @pytest.mark.parametrize("target", ["threads", "inproc"])
    def test_an_unwired_program_input_is_a_400(self, harness, target):
        """A program reading ``b`` that nothing wires is refused by the one
        executor both targets share, with one message."""
        design = DataflowGraph("unwired")
        design.add_storage("a", data="a", initial=1.0)
        design.add_task("t", program="input a, b\noutput r\nr := a + b")
        design.add_storage("r", data="r")
        design.connect("a", "t")
        design.connect("t", "r")
        project = BangerProject("unwired").set_design(design)
        project.set_machine("hypercube", 2, MachineParams())
        status, reply = harness.post_bytes("/codegen", _run_body(project.to_dict(), target))
        assert status == 400, reply
        assert "task 't': program inputs ['b'] are not supplied" in reply.decode()

    def test_new_target_reuses_the_cached_ir(self, harness, project_doc):
        threads = harness.client.codegen(project_doc, target="threads")
        mpi = harness.client.codegen(project_doc, target="mpi")
        assert threads["ir_hash"] == mpi["ir_hash"]
        metrics = harness.client.metrics()
        stats = metrics["server"]["work"]
        assert stats["ir_misses"] == 1, stats
        assert stats["ir_hits"] >= 1, stats


def test_a_failing_task_is_a_400_and_the_daemon_keeps_serving(daemon_factory):
    """One inline slot and a short budget: a run whose producer fails must
    answer with its own error, and leave the slot free for the next
    request."""
    harness = daemon_factory(workers=0, request_timeout=5.0)
    doc = failing_producer_project().to_dict()
    body = {"project": doc, "run": True, "scheduler": "roundrobin"}
    status, reply = harness.post_bytes("/codegen", json.dumps(body).encode())
    assert status == 400, reply
    assert "division by zero" in reply.decode()
    status, reply = harness.post_bytes(
        "/schedule", json.dumps({"project": doc}).encode())
    assert status == 200, reply
