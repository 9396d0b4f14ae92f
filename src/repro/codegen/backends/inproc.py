"""The one executor of a lowered program, and the ``inproc`` backend.

:func:`run_workers` runs a :class:`~repro.codegen.ir.LoweredProgram` in
this process: one thread per used processor
(:func:`repro.codegen.runtime.run_procs`), a single-message channel per
channel, and each step's task computed by the task function it is handed.
``inproc`` hands it the PITS interpreter; ``threads`` the Python functions
it emits.  Besides the design outputs it returns a **timestamped event
trace** — every compute, send, and receive with a global sequence number —
which is what the ``exec_trace`` conformance oracle checks against the
schedule's precedence and channel plan (:func:`trace_problems`).

Event-ordering guarantees the recorder enforces (and the oracle relies on):

* a ``send`` event is recorded *before* its channel put, a ``recv`` event
  *after* its blocking get returns — so ``send.seq < recv.seq`` whenever a
  message actually flowed through a channel;
* a ``compute`` event is recorded after the task function returns, after
  the step's receives and before its sends — so producer ``compute`` <
  ``send`` < ``recv`` < consumer ``compute`` holds transitively.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.calc.interp import Interpreter
from repro.calc.parser import parse
from repro.codegen.backends.base import Backend, bound_inputs
from repro.codegen.ir import Channel, ComputeStep, LoweredProgram
from repro.codegen.runtime import Channel as MessageChannel, run_procs
from repro.errors import CodegenError

#: Seconds one worker may block on a single receive before declaring the
#: run wedged (generous: trial runs are small).
RECV_TIMEOUT = 30.0

#: ``fn(env, display) -> outputs``: one task's routine, ``display`` taking
#: each line it shows.  Copies of a task may run at once.
TaskFunction = Callable[[dict[str, Any], Callable[[str], None]], dict[str, Any]]


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


@dataclass
class ExecutionResult:
    """Outputs plus the observable behaviour of one in-process run."""

    outputs: dict[str, Any]
    displays: list[str] = field(default_factory=list)
    events: tuple[TraceEvent, ...] = ()

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def procs_used(self) -> list[int]:
        return sorted({e.proc for e in self.events_of("compute")})

    @property
    def messages_sent(self) -> int:
        return len(self.events_of("send"))


def run_workers(
    program: LoweredProgram,
    inputs: dict[str, Any] | None,
    tasks: dict[str, TaskFunction],
) -> ExecutionResult:
    """Run ``program`` on one thread per processor, once every graph input
    has a value (:func:`bound_inputs`).

    Each step binds its graph inputs, reads locals from its processor's
    store, blocks on its receives, calls ``tasks[step.task](env, display)``
    for the task's output values, stores them, then sends; every
    ``recv``/``compute``/``send`` is recorded in the order documented on
    this module.  Protocol failures (receive timeout, wedged thread, a
    variable read or sent that its task did not produce, a declared program
    input that no in-edge or graph input supplies, missing graph output)
    raise :class:`CodegenError`, whichever target compiled ``tasks``.  The first exception a worker
    raises closes every channel, so no other worker waits for a message
    that will not come, and is re-raised here.
    """
    bound = bound_inputs(program, inputs)
    declared = {task: parse(code.pits).inputs for task, code in program.tasks.items()}
    chans = {chan: MessageChannel() for chan in program.channels}
    stores: dict[int, dict[tuple[str, str], Any]] = {p: {} for p in program.procs}
    displays: list[str] = []
    events: list[TraceEvent] = []
    lock = threading.Lock()
    t0 = time.perf_counter()

    def record(kind: str, proc: int, task: str, channel: Channel | None = None) -> None:
        with lock:
            events.append(TraceEvent(
                len(events), time.perf_counter() - t0, kind, proc, task, channel))

    def produced(store: dict[tuple[str, str], Any], task: str, var: str) -> Any:
        try:
            return store[(task, var)]
        except KeyError:
            raise CodegenError(f"task {task!r} did not produce {var!r}") from None

    def worker(proc: int, chans: dict[Channel, MessageChannel]) -> None:
        store = stores[proc]
        for step in program.procs[proc]:
            env = {var: bound[var] for var in step.graph_inputs}
            for read in step.reads:
                if read.var:
                    env[read.var] = produced(store, read.src_task, read.var)
            for recv in step.recvs:
                chan = step.recv_channel(recv)
                try:
                    value = chans[chan].get(timeout=RECV_TIMEOUT)
                except queue.Empty:
                    raise CodegenError(
                        f"processor {proc}: timed out waiting for "
                        f"{recv.var!r} from {recv.src_task!r} "
                        f"(processor {recv.src_proc})"
                    ) from None
                record("recv", proc, step.task, chan)
                if recv.var:
                    env[recv.var] = value
            missing = [v for v in declared[step.task] if v not in env]
            if missing:
                raise CodegenError(
                    f"task {step.task!r}: program inputs {missing} are not supplied "
                    f"by any in-edge or graph input (available: {sorted(env)})"
                )
            out = tasks[step.task](
                env, lambda line, task=step.task: displays.append(f"{task}: {line}"))
            record("compute", proc, step.task)
            for var, value in out.items():
                store[(step.task, var)] = value
            for send in step.sends:
                # a control arc carries no datum
                value = produced(store, send.src_task, send.var) if send.var else None
                chan = ComputeStep.send_channel(send)
                record("send", proc, step.task, chan)
                chans[chan].put(value)

    try:
        run_procs(
            {p: functools.partial(worker, p) for p in program.procs}, chans,
            timeout=RECV_TIMEOUT * 4,
        )
    except TimeoutError as exc:
        raise CodegenError(str(exc)) from None

    outputs: dict[str, Any] = {}
    for var, (producer, proc) in program.output_sources.items():
        try:
            outputs[var] = stores[proc][(producer, var)]
        except KeyError:
            raise CodegenError(
                f"graph output {var!r} missing from processor {proc}"
            ) from None
    return ExecutionResult(outputs=outputs, displays=displays, events=tuple(events))


def interpreted(source: str) -> TaskFunction:
    """A task's PITS ``source``, run by the interpreter on the program's
    declared inputs.  Each call builds its own :class:`Interpreter` (the
    parse is the shared fact table's), so copies can run at once."""
    program = parse(source)

    def run(env: dict[str, Any], display: Callable[[str], None]) -> dict[str, Any]:
        result = Interpreter(program).run(**{v: env[v] for v in program.inputs})
        for line in result.displayed:
            display(line)
        return result.outputs

    return run


class InprocBackend(Backend):
    """The lowered program run in process on the PITS interpreter, with an
    event trace."""

    name = "inproc"
    description = (
        "run the lowered program in-process (thread per processor) on the "
        "PITS interpreter, returning outputs and an event trace"
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
        tasks = {t: interpreted(code.pits) for t, code in program.tasks.items()}
        return run_workers(program, inputs, tasks)


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
