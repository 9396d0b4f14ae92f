"""Unit tests for the CG5xx communication-plan analyzer.

Plans are built by hand (synthetic :class:`ComputeStep` lists) so each rule
can be triggered in isolation; end-to-end plans from real schedules are
covered by the conformance oracle and the mutation test.
"""

from repro.analysis.concurrency import (
    analyze_plan,
    execute_plan_protocol,
    ir_ops,
    plan_signature,
)
from repro.codegen.ir import ComputeStep, RecvOp, SendOp
from repro.severity import Severity


def make_plan(steps_by_proc):
    return {proc: tuple(steps) for proc, steps in steps_by_proc.items()}


def rule_ids(diags):
    return sorted(d.rule_id for d in diags)


def step(task, proc, recvs=(), sends=()):
    return ComputeStep(task=task, proc=proc, start=0.0,
                       recvs=tuple(recvs), sends=tuple(sends))


class TestStructuralRules:
    def test_clean_pair(self):
        plan = make_plan({
            0: [step("a", 0, sends=[SendOp("a", "b", "x", 1)])],
            1: [step("b", 1, recvs=[RecvOp("a", "x", 0)])],
        })
        assert analyze_plan(plan) == []
        assert execute_plan_protocol(plan, timeout=2.0)

    def test_cg502_recv_without_send(self):
        plan = make_plan({
            1: [step("b", 1, recvs=[RecvOp("a", "x", 0)])],
        })
        diags = analyze_plan(plan)
        assert rule_ids(diags) == ["CG502"]
        assert diags[0].severity is Severity.ERROR
        assert "blocks forever" in diags[0].message

    def test_cg503_send_never_received(self):
        plan = make_plan({
            0: [step("a", 0, sends=[SendOp("a", "b", "x", 1)])],
        })
        diags = analyze_plan(plan)
        assert rule_ids(diags) == ["CG503"]
        assert diags[0].severity is Severity.WARNING

    def test_cg504_channel_reused(self):
        plan = make_plan({
            0: [step("a", 0, sends=[SendOp("a", "b", "x", 1),
                                    SendOp("a", "b", "x", 1)])],
            1: [step("b", 1, recvs=[RecvOp("a", "x", 0)])],
        })
        diags = analyze_plan(plan)
        assert "CG504" in rule_ids(diags)
        (d,) = [d for d in diags if d.rule_id == "CG504"]
        assert "2 send(s) / 1 receive(s)" in d.message

    def test_cg505_send_to_own_processor(self):
        plan = make_plan({
            0: [step("a", 0, sends=[SendOp("a", "b", "x", 0)]),
                step("b", 0, recvs=[RecvOp("a", "x", 0)])],
        })
        diags = analyze_plan(plan)
        assert "CG505" in rule_ids(diags)

    def test_fatal_structural_errors_skip_deadlock_simulation(self):
        # a lone recv would also look "stuck"; CG502 must not double-report
        plan = make_plan({
            1: [step("b", 1, recvs=[RecvOp("a", "x", 0)])],
        })
        assert "CG501" not in rule_ids(analyze_plan(plan))


class TestDeadlockDetection:
    def cross_wait_plan(self):
        """Two processors each receive before sending: a circular wait."""
        return make_plan({
            0: [step("a", 0,
                     recvs=[RecvOp("b", "y", 1)],
                     sends=[SendOp("a", "b", "x", 1)])],
            1: [step("b", 1,
                     recvs=[RecvOp("a", "x", 0)],
                     sends=[SendOp("b", "a", "y", 0)])],
        })

    def test_cg501_on_circular_wait(self):
        diags = analyze_plan(self.cross_wait_plan())
        assert rule_ids(diags) == ["CG501"]
        (d,) = diags
        assert d.severity is Severity.ERROR
        assert "deadlock" in d.message
        assert "blocked receiving" in d.message

    def test_circular_wait_really_deadlocks(self):
        assert not execute_plan_protocol(self.cross_wait_plan(), timeout=0.3)

    def test_opposite_order_is_fine(self):
        plan = make_plan({
            0: [step("a", 0,
                     sends=[SendOp("a", "b", "x", 1)],
                     recvs=[])],
            1: [step("b", 1,
                     recvs=[RecvOp("a", "x", 0)],
                     sends=[SendOp("b", "c", "y", 0)])],
            # a second step on proc 0 consumes y after a's send
        })
        plan[0] += (step("c", 0, recvs=[RecvOp("b", "y", 1)]),)
        assert analyze_plan(plan) == []
        assert execute_plan_protocol(plan, timeout=2.0)


class TestSignature:
    def test_signature_is_json_canonical(self):
        import json

        plan = make_plan({
            0: [step("a", 0, sends=[SendOp("a", "b", "x", 1)])],
            1: [step("b", 1, recvs=[RecvOp("a", "x", 0)])],
        })
        sig = plan_signature(plan)
        assert sig["kind"] == "comm-plan-ops"
        json.dumps(sig)  # must be serializable as-is

    def test_signature_reflects_order(self):
        s1 = step("a", 0, sends=[SendOp("a", "b", "x", 1),
                                 SendOp("a", "c", "y", 1)])
        s2 = step("a", 0, sends=[SendOp("a", "c", "y", 1),
                                 SendOp("a", "b", "x", 1)])
        p1 = make_plan({0: [s1]})
        p2 = make_plan({0: [s2]})
        assert plan_signature(p1) != plan_signature(p2)

    def test_empty_procs_are_dropped(self):
        plan = make_plan({0: [step("a", 0)], 1: []})
        assert ir_ops(plan) == {}
