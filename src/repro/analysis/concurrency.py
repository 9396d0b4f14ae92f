"""Static verification of communication plans: the ``CG5xx`` rule family.

The code generators (:mod:`repro.codegen`) lower a schedule to
per-processor step sequences communicating over blocking
``queue.Queue(maxsize=1)`` channels.  That protocol has exactly the failure
modes of real message passing — a receive with no sender, a message nobody
consumes, two writers racing on one channel, and circular waits — and all
of them are decidable *statically*, because the op sequences are finite and
fixed at generation time.

This module extracts the per-processor channel-op sequences **from the
shared lowering IR** (:func:`repro.codegen.ir.lower_steps`, which itself
delegates ordering to :func:`repro.codegen.ir.proc_steps` at call time),
so the analyzer verifies exactly the step lists every backend consumes; any
reordering in the lowering is visible to the analyzer and to all emitters
identically, by construction.  Every entry point takes the IR's ``procs``
mapping — a :attr:`LoweredProgram.procs
<repro.codegen.ir.LoweredProgram.procs>` or the first element of a
``lower_steps`` result.

Rules:

* ``CG501`` (error): deadlock — the op sequences cannot all run to
  completion under blocking queue semantics (wait-for cycle or starvation);
* ``CG502`` (error): a receive on a channel that is never sent on;
* ``CG503`` (warning): a send whose message is never received (the channel
  is left full — harmless today, a leak in any bounded-buffer runtime);
* ``CG504`` (error): a channel used by more than one send or more than one
  receive (the single-shot channel naming scheme is violated);
* ``CG505`` (warning): a send addressed to the sender's own processor —
  should have been lowered to a local read.

:func:`execute_plan_protocol` runs the same op sequences on real threads
and queues (with dummy payloads), which is what the conformance oracle uses
to check the analyzer's deadlock-freedom verdicts against reality.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic, make_diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.ir import Procs

#: (src_task, dst_task, var, dst_proc) — the IR's channel identity.
Channel = tuple[str, str, str, int]

#: ("send" | "recv", channel, task) — one blocking channel operation.
Op = tuple[str, Channel, str]


def ir_ops(procs: "Procs") -> dict[int, list[Op]]:
    """Per-processor channel-op sequences of lowered step lists, in
    execution order — the analyzer reads the same step lists the backends
    emit from."""
    ops: dict[int, list[Op]] = {}
    for proc in sorted(procs):
        seq: list[Op] = []
        for step in procs[proc]:
            for recv in step.recvs:
                seq.append(("recv", step.recv_channel(recv), step.task))
            for send in step.sends:
                seq.append(("send", step.send_channel(send), step.task))
        if seq:
            ops[proc] = seq
    return ops


def plan_signature(procs: "Procs") -> dict:
    """A canonical, JSON-serializable digest of the channel protocol —
    the cache key material for incremental plan analysis."""
    return {
        "kind": "comm-plan-ops",
        "procs": {
            str(proc): [[kind, list(chan)] for kind, chan, _task in seq]
            for proc, seq in ir_ops(procs).items()
        },
    }


def analyze_plan(procs: "Procs") -> list[Diagnostic]:
    """Every CG5xx diagnostic for one communication plan."""
    ops = ir_ops(procs)
    diags: list[Diagnostic] = []

    sends: dict[Channel, list[tuple[int, str]]] = {}
    recvs: dict[Channel, list[tuple[int, str]]] = {}
    for proc, seq in ops.items():
        for kind, chan, task in seq:
            (sends if kind == "send" else recvs).setdefault(chan, []).append(
                (proc, task)
            )

    fatal = False
    for chan in sorted(set(sends) | set(recvs)):
        src_task, dst_task, var, dst_proc = chan
        n_send = len(sends.get(chan, ()))
        n_recv = len(recvs.get(chan, ()))
        label = f"channel {src_task}->{dst_task} var {var!r} (processor {dst_proc})"
        if n_recv and not n_send:
            fatal = True
            diags.append(make_diagnostic(
                "CG502",
                f"receive on {label} has no matching send; the receiver "
                "blocks forever",
                node=dst_task,
            ))
        if n_send and not n_recv:
            diags.append(make_diagnostic(
                "CG503",
                f"message on {label} is never received",
                node=src_task,
            ))
        if n_send > 1 or n_recv > 1:
            fatal = True
            diags.append(make_diagnostic(
                "CG504",
                f"{label} is used {n_send} send(s) / {n_recv} receive(s); "
                "each channel must carry exactly one message",
                node=src_task,
            ))
        for proc, task in sends.get(chan, ()):
            if proc == dst_proc:
                diags.append(make_diagnostic(
                    "CG505",
                    f"send on {label} stays on processor {proc}; this should "
                    "be a local read",
                    node=task,
                ))

    if not fatal:
        stuck = _simulate(ops)
        if stuck:
            parts = []
            for proc, (kind, chan, task) in sorted(stuck.items())[:4]:
                src_task, dst_task, var, dst_proc = chan
                verb = "receiving" if kind == "recv" else "sending"
                parts.append(
                    f"processor {proc} blocked {verb} var {var!r} "
                    f"({src_task}->{dst_task}) in task {task!r}"
                )
            more = len(stuck) - 4
            if more > 0:
                parts.append(f"and {more} more")
            diags.append(make_diagnostic(
                "CG501",
                "deadlock: the generated program cannot run to completion — "
                + "; ".join(parts),
                node=sorted(stuck.values())[0][2],
            ))
    return diags


def _simulate(ops: dict[int, list[Op]]) -> dict[int, Op]:
    """Fixpoint execution under blocking Queue(maxsize=1) semantics.

    A send executes iff its channel is empty; a receive iff it is full.
    Round-robin until no processor can move; whatever is left is blocked.
    Terminates: every move advances one pointer and pointers never rewind.
    """
    pointers = {proc: 0 for proc in ops}
    filled: dict[Channel, int] = {}
    moved = True
    while moved:
        moved = False
        for proc in sorted(ops):
            seq = ops[proc]
            while pointers[proc] < len(seq):
                kind, chan, _task = seq[pointers[proc]]
                if kind == "send" and filled.get(chan, 0) == 0:
                    filled[chan] = 1
                elif kind == "recv" and filled.get(chan, 0) > 0:
                    filled[chan] = 0
                else:
                    break
                pointers[proc] += 1
                moved = True
    return {
        proc: ops[proc][pointers[proc]]
        for proc in ops
        if pointers[proc] < len(ops[proc])
    }


def execute_plan_protocol(procs: "Procs", timeout: float = 5.0) -> bool:
    """Run the plan's communication skeleton on real threads and queues.

    Dummy payloads, no PITS execution: this isolates the channel protocol,
    which is the only thing the static analyzer reasons about.  Returns
    True iff every processor thread ran its op sequence to completion
    within ``timeout`` seconds.
    """
    ops = ir_ops(procs)
    channels: dict[Channel, queue.Queue] = {}
    for seq in ops.values():
        for _kind, chan, _task in seq:
            channels.setdefault(chan, queue.Queue(maxsize=1))

    ok = {proc: False for proc in ops}

    def worker(proc: int) -> None:
        try:
            for kind, chan, _task in ops[proc]:
                if kind == "send":
                    channels[chan].put(None, timeout=timeout)
                else:
                    channels[chan].get(timeout=timeout)
        except queue.Empty:
            return
        except queue.Full:
            return
        ok[proc] = True

    threads = [
        threading.Thread(target=worker, args=(proc,), daemon=True, name=f"cg-proc{proc}")
        for proc in ops
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 1.0)
    return all(ok.values())
