"""The ``inproc`` backend: execute the IR directly, no source round-trip.

Where the ``threads`` backend renders Python text and ``exec``\\ s it, this
backend walks the :class:`~repro.codegen.ir.LoweredProgram` itself: one
worker thread per used processor, a ``Queue(maxsize=1)`` per channel
(:func:`run_workers` — the one worker loop, which the PITS-interpreter
executor :mod:`repro.sim.threaded` drives too), task functions compiled
once from the IR's stored Python bodies.  Besides the design outputs it
returns a **timestamped event trace** — every compute, send, and receive
with a global sequence number — which is what the ``exec_trace``
conformance oracle checks against the schedule's precedence and channel
plan (:func:`trace_problems`).

Event-ordering guarantees the recorder enforces (and the oracle relies on):

* a ``send`` event is recorded *before* its queue put, a ``recv`` event
  *after* its blocking get returns — so ``send.seq < recv.seq`` whenever a
  message actually flowed through a channel;
* a ``compute`` event is recorded after the task function returns, after
  the step's receives and before its sends — so producer ``compute`` <
  ``send`` < ``recv`` < consumer ``compute`` holds transitively.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.codegen.backends.base import Backend, bound_inputs
from repro.codegen.ir import Channel, ComputeStep, LoweredProgram, Procs
from repro.codegen.pits2py import function_name
from repro.errors import CodegenError, ReproError

#: Seconds one worker may block on a single receive before declaring the
#: run wedged (generous: trial runs are small).
RECV_TIMEOUT = 30.0

#: Put on a channel whose sender died, so its receiver stops waiting.
_ABORTED = object()


@dataclass(frozen=True)
class TraceEvent:
    """One observed runtime event, globally ordered by ``seq``."""

    seq: int
    #: seconds since the run started (monotonic clock)
    t: float
    #: ``"compute"`` | ``"send"`` | ``"recv"``
    kind: str
    proc: int
    task: str
    #: the channel for send/recv events; ``None`` for compute
    channel: Channel | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "proc": self.proc,
            "task": self.task,
            "channel": list(self.channel) if self.channel else None,
        }


@dataclass
class ExecutionResult:
    """Outputs plus the observable behaviour of one in-process run."""

    outputs: dict[str, Any]
    displays: list[str] = field(default_factory=list)
    events: tuple[TraceEvent, ...] = ()

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


class _Recorder:
    """Thread-safe event log with a global sequence counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._t0 = time.perf_counter()

    def record(self, kind: str, proc: int, task: str, channel: Channel | None = None) -> None:
        with self._lock:
            self._events.append(
                TraceEvent(
                    seq=len(self._events),
                    t=time.perf_counter() - self._t0,
                    kind=kind,
                    proc=proc,
                    task=task,
                    channel=channel,
                )
            )

    def events(self) -> tuple[TraceEvent, ...]:
        with self._lock:
            return tuple(self._events)


def compile_task_functions(program: LoweredProgram) -> dict[str, Callable[..., dict[str, Any]]]:
    """Compile the IR's stored task bodies into callables, once per run."""
    import numpy as _np

    from repro.codegen import runtime as _rt

    namespace: dict[str, Any] = {
        "__name__": "banger_inproc",
        "_np": _np,
        "_rt": _rt,
    }
    fns: dict[str, Callable[..., dict[str, Any]]] = {}
    for task in program.task_order:
        code = program.tasks[task].python
        exec(compile(code, f"<banger-ir:{task}>", "exec"), namespace)
        fns[task] = namespace[function_name(task)]
    return fns


def run_workers(
    procs: Procs,
    channels: Iterable[Channel],
    output_sources: dict[str, tuple[str, int]],
    bound: dict[str, Any],
    run_step: Callable[[ComputeStep, dict[str, Any]], dict[str, Any]],
    record: Callable[..., None],
    error: type[ReproError],
) -> dict[str, Any]:
    """Run lowered step lists on one thread per processor; returns outputs.

    Each step binds its graph inputs from ``bound``, reads locals from its
    processor's store, blocks on its receives, calls ``run_step(step, env)``
    for the task's output values, stores them, then sends.  ``record`` is
    told of every ``recv``/``compute``/``send`` in the order documented on
    this module.  Protocol failures (receive timeout, wedged thread, missing
    graph output) raise ``error``; the first exception a worker raises is
    re-raised here.  A worker that stops early puts :data:`_ABORTED` on the
    channels it still owed, so its consumers stop too instead of waiting out
    :data:`RECV_TIMEOUT`.
    """
    queues: dict[Channel, queue.Queue] = {
        chan: queue.Queue(maxsize=1) for chan in channels
    }
    stores: dict[int, dict[tuple[str, str], Any]] = {p: {} for p in procs}
    failures: list[BaseException] = []

    def worker(proc: int) -> None:
        store = stores[proc]
        owed = deque(
            ComputeStep.send_channel(s) for step in procs[proc] for s in step.sends
        )
        try:
            for step in procs[proc]:
                env: dict[str, Any] = {}
                for var in step.graph_inputs:
                    env[var] = bound[var]
                for read in step.reads:
                    if read.var:
                        env[read.var] = store[(read.src_task, read.var)]
                for recv in step.recvs:
                    chan = step.recv_channel(recv)
                    try:
                        value = queues[chan].get(timeout=RECV_TIMEOUT)
                    except queue.Empty:
                        raise error(
                            f"processor {proc}: timed out waiting for "
                            f"{recv.var!r} from {recv.src_task!r} "
                            f"(processor {recv.src_proc})"
                        ) from None
                    if value is _ABORTED:
                        return
                    record("recv", proc, step.task, chan)
                    if recv.var:
                        env[recv.var] = value
                out = run_step(step, env)
                record("compute", proc, step.task)
                for var, value in out.items():
                    store[(step.task, var)] = value
                for send in step.sends:
                    chan = owed[0]
                    record("send", proc, step.task, chan)
                    queues[chan].put(store.get((send.src_task, send.var)))
                    owed.popleft()
        except BaseException as exc:  # propagate to the caller's thread
            failures.append(exc)
        finally:
            for chan in owed:
                try:
                    queues[chan].put_nowait(_ABORTED)
                except queue.Full:
                    pass  # a second writer got there first; the reader wakes anyway

    threads = [
        threading.Thread(target=worker, args=(p,), name=f"proc{p}", daemon=True)
        for p in procs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=RECV_TIMEOUT * 4)
        if t.is_alive():
            raise error(f"thread {t.name} did not finish (deadlock?)")
    if failures:
        raise failures[0]

    outputs: dict[str, Any] = {}
    for var, (producer, proc) in output_sources.items():
        try:
            outputs[var] = stores[proc][(producer, var)]
        except KeyError:
            raise error(
                f"graph output {var!r} missing from processor {proc}"
            ) from None
    return outputs


class InprocBackend(Backend):
    """Direct IR execution on worker threads, with an event trace."""

    name = "inproc"
    description = (
        "execute the lowered IR in-process (thread per processor), "
        "returning outputs and an event trace"
    )
    emits_source = False
    runnable = True

    def run(
        self, program: LoweredProgram, inputs: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        return self.execute(program, inputs).outputs

    def execute(
        self, program: LoweredProgram, inputs: dict[str, Any] | None = None
    ) -> ExecutionResult:
        bound = bound_inputs(program, inputs)
        fns = compile_task_functions(program)
        recorder = _Recorder()
        displays: list[str] = []
        display_lock = threading.Lock()

        def run_step(step: ComputeStep, env: dict[str, Any]) -> dict[str, Any]:
            def display(line: str) -> None:
                with display_lock:
                    displays.append(f"{step.task}: {line}")

            return fns[step.task](env, display)

        outputs = run_workers(
            program.procs, program.channels, program.output_sources,
            bound, run_step, recorder.record, CodegenError,
        )
        return ExecutionResult(
            outputs=outputs, displays=displays, events=recorder.events()
        )


# --------------------------------------------------------------------- #
# trace validation — the exec_trace oracle's checker
# --------------------------------------------------------------------- #
def trace_problems(
    program: LoweredProgram, events: Iterable[TraceEvent]
) -> list[str]:
    """Every way ``events`` can contradict the program's plan, described.

    Checks, in order: per-processor compute sequences match the IR's step
    lists exactly; every channel carried exactly one message with the send
    observed before the receive; every receive preceded its step's compute
    and every send followed it; and every message's producer computed
    before its consumer (the schedule's precedence constraints, observed
    at runtime rather than assumed).
    """
    events = list(events)
    problems: list[str] = []

    # --- per-processor compute order ----------------------------------- #
    computed: dict[int, list[str]] = {}
    compute_seq: dict[tuple[str, int], int] = {}
    for e in events:
        if e.kind == "compute":
            computed.setdefault(e.proc, []).append(e.task)
            compute_seq[(e.task, e.proc)] = e.seq
    for proc in program.procs_used():
        expected = [s.task for s in program.steps(proc)]
        got = computed.get(proc, [])
        if got != expected:
            problems.append(
                f"processor {proc} computed {got!r}, plan says {expected!r}"
            )

    # --- channel traffic ------------------------------------------------ #
    sends: dict[Channel, list[TraceEvent]] = {}
    recvs: dict[Channel, list[TraceEvent]] = {}
    for e in events:
        if e.kind == "send" and e.channel is not None:
            sends.setdefault(e.channel, []).append(e)
        elif e.kind == "recv" and e.channel is not None:
            recvs.setdefault(e.channel, []).append(e)
    for chan in program.channels:
        ns, nr = len(sends.get(chan, [])), len(recvs.get(chan, []))
        if ns != 1 or nr != 1:
            problems.append(
                f"channel {chan!r} carried {ns} send(s) and {nr} recv(s); "
                f"expected exactly one of each"
            )
            continue
        send, recv = sends[chan][0], recvs[chan][0]
        if not send.seq < recv.seq:
            problems.append(
                f"channel {chan!r}: recv (seq {recv.seq}) observed before "
                f"send (seq {send.seq})"
            )
    planned = set(program.channels)
    for chan in set(sends) | set(recvs):
        if chan not in planned:
            problems.append(f"unplanned channel {chan!r} carried traffic")

    # --- step-local ordering and cross-step precedence ------------------ #
    for step in program.all_steps():
        my_seq = compute_seq.get((step.task, step.proc))
        if my_seq is None:
            continue  # already reported as a missing compute above
        for recv in step.recvs:
            chan = step.recv_channel(recv)
            for e in recvs.get(chan, []):
                if e.seq > my_seq:
                    problems.append(
                        f"step {step.task!r}@{step.proc}: recv on {chan!r} "
                        f"(seq {e.seq}) after its compute (seq {my_seq})"
                    )
            src_seq = compute_seq.get((recv.src_task, recv.src_proc))
            if src_seq is not None and not src_seq < my_seq:
                problems.append(
                    f"precedence violated: {recv.src_task!r}@{recv.src_proc} "
                    f"(seq {src_seq}) did not complete before "
                    f"{step.task!r}@{step.proc} (seq {my_seq})"
                )
        for send in step.sends:
            chan = ComputeStep.send_channel(send)
            for e in sends.get(chan, []):
                if e.proc == step.proc and e.seq < my_seq:
                    problems.append(
                        f"step {step.task!r}@{step.proc}: send on {chan!r} "
                        f"(seq {e.seq}) before its compute (seq {my_seq})"
                    )
        for read in step.reads:
            src_seq = compute_seq.get((read.src_task, step.proc))
            if src_seq is not None and not src_seq < my_seq:
                problems.append(
                    f"local read violated: {read.src_task!r}@{step.proc} "
                    f"(seq {src_seq}) did not complete before "
                    f"{step.task!r}@{step.proc} (seq {my_seq})"
                )
    return problems
