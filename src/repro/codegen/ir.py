"""The lowering IR: one canonical program form every backend consumes.

A :class:`LoweredProgram` is derived **once** from a schedule (flattened
graph + placement) and is the single source of truth for everything the
execution layer does with it:

* the ``threads`` backend renders it as the threaded message-passing
  Python program (:mod:`repro.codegen.backends.threads`);
* the ``inproc`` backend runs it in process, each task on the PITS
  interpreter (:mod:`repro.codegen.backends.inproc`);
* the ``mpi`` and ``c`` backends render mpi4py / C-pseudocode listings;
* the static concurrency analyzer (:mod:`repro.analysis.concurrency`)
  extracts its channel-op sequences from the same step lists, so whatever
  the backends emit is exactly what gets verified.

Step ordering is delegated to the ordering hook :func:`proc_steps` (looked
up at call time): patching the hook changes the IR, and therefore *every*
backend and the analyzer, identically — that is the drift-proofing this
module exists for.

The IR is canonical-JSON-serializable (:meth:`LoweredProgram.to_dict` /
:meth:`from_dict` round-trip) and content-hashed with the same fingerprint
machinery as :mod:`repro.graph.serialize`, so it can live in the
:class:`repro.sched.service.ScheduleService` cache and key daemon request
coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import CodegenError, SimError
from repro.graph.serialize import _decode_value, _encode_value, fingerprint
from repro.sched.schedule import Placement, Schedule

#: Bump when the document layout changes; hashes embed it, so old cache
#: entries can never be mistaken for new ones.
IR_VERSION = 1

#: (src_task, dst_task, var, dst_proc) — one single-shot message channel.
Channel = tuple[str, str, str, int]


# --------------------------------------------------------------------- #
# per-step operations
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReadOp:
    """Read ``var`` of ``src_task`` from this processor's local store."""

    src_task: str
    var: str


@dataclass(frozen=True)
class RecvOp:
    """Block until ``var`` of ``src_task`` arrives from ``src_proc``."""

    src_task: str
    var: str
    src_proc: int
    size: float = 1.0


@dataclass(frozen=True)
class SendOp:
    """Ship ``var`` (produced here by ``src_task``) to ``dst_proc``."""

    src_task: str
    dst_task: str
    var: str
    dst_proc: int
    size: float = 1.0


@dataclass(frozen=True)
class ComputeStep:
    """Run one task copy: receive, read locals, execute, then send."""

    task: str
    proc: int
    start: float
    graph_inputs: tuple[str, ...] = ()
    reads: tuple[ReadOp, ...] = ()
    recvs: tuple[RecvOp, ...] = ()
    sends: tuple[SendOp, ...] = ()

    def recv_channel(self, recv: RecvOp) -> Channel:
        return (recv.src_task, self.task, recv.var, self.proc)

    @staticmethod
    def send_channel(send: SendOp) -> Channel:
        return (send.src_task, send.dst_task, send.var, send.dst_proc)


#: processor -> its step list, in execution order
Procs = dict[int, tuple[ComputeStep, ...]]


@dataclass(frozen=True)
class TaskCode:
    """Both renderings of one task's routine the backends need."""

    #: the original PITS source (C backend re-parses it)
    pits: str
    #: the translated Python ``def`` (threads/inproc/mpi backends)
    python: str


# --------------------------------------------------------------------- #
# the program
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoweredProgram:
    """Canonical per-processor program lowered from one schedule."""

    design: str
    machine: str
    n_procs: int
    scheduler: str
    makespan: float
    #: emission order for task routines (deduplicated topological order)
    task_order: tuple[str, ...]
    tasks: dict[str, TaskCode] = field(default_factory=dict)
    input_defaults: dict[str, Any] = field(default_factory=dict)
    #: empty processors are omitted (keys iterate sorted)
    procs: Procs = field(default_factory=dict)
    #: every channel, deduplicated, in first-send order
    channels: tuple[Channel, ...] = ()
    #: graph output variable -> (producer task, processor holding it)
    output_sources: dict[str, tuple[str, int]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def procs_used(self) -> list[int]:
        return sorted(self.procs)

    def steps(self, proc: int) -> tuple[ComputeStep, ...]:
        return self.procs.get(proc, ())

    def all_steps(self) -> Iterator[ComputeStep]:
        for proc in sorted(self.procs):
            yield from self.procs[proc]

    def step_count(self) -> int:
        return sum(len(steps) for steps in self.procs.values())

    # ------------------------------------------------------------------ #
    # serialization + content addressing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": IR_VERSION,
            "type": "lowered-program",
            "design": self.design,
            "machine": self.machine,
            "n_procs": self.n_procs,
            "scheduler": self.scheduler,
            "makespan": self.makespan,
            "task_order": list(self.task_order),
            "tasks": {
                name: {"pits": code.pits, "python": code.python}
                for name, code in self.tasks.items()
            },
            "input_defaults": {
                k: _encode_value(v) for k, v in self.input_defaults.items()
            },
            "procs": [
                {
                    "proc": proc,
                    "steps": [
                        {
                            "task": s.task,
                            "start": s.start,
                            "graph_inputs": list(s.graph_inputs),
                            "reads": [[r.src_task, r.var] for r in s.reads],
                            "recvs": [
                                [r.src_task, r.var, r.src_proc, r.size]
                                for r in s.recvs
                            ],
                            "sends": [
                                [s_.src_task, s_.dst_task, s_.var,
                                 s_.dst_proc, s_.size]
                                for s_ in s.sends
                            ],
                        }
                        for s in self.procs[proc]
                    ],
                }
                for proc in sorted(self.procs)
            ],
            "channels": [list(c) for c in self.channels],
            "output_sources": {
                var: [task, proc]
                for var, (task, proc) in self.output_sources.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "LoweredProgram":
        if doc.get("type") != "lowered-program":
            raise CodegenError(
                f"not a lowered-program document (type={doc.get('type')!r})"
            )
        if doc.get("format") != IR_VERSION:
            raise CodegenError(
                f"unsupported lowered-program format {doc.get('format')!r}; "
                f"this build reads version {IR_VERSION}"
            )
        procs: Procs = {}
        for entry in doc.get("procs", []):
            proc = int(entry["proc"])
            procs[proc] = tuple(
                ComputeStep(
                    task=s["task"],
                    proc=proc,
                    start=float(s["start"]),
                    graph_inputs=tuple(s.get("graph_inputs", ())),
                    reads=tuple(ReadOp(*r) for r in s.get("reads", ())),
                    recvs=tuple(
                        RecvOp(r[0], r[1], int(r[2]), float(r[3]))
                        for r in s.get("recvs", ())
                    ),
                    sends=tuple(
                        SendOp(x[0], x[1], x[2], int(x[3]), float(x[4]))
                        for x in s.get("sends", ())
                    ),
                )
                for s in entry.get("steps", ())
            )
        return cls(
            design=doc.get("design", ""),
            machine=doc.get("machine", ""),
            n_procs=int(doc.get("n_procs", 0)),
            scheduler=doc.get("scheduler", ""),
            makespan=float(doc.get("makespan", 0.0)),
            task_order=tuple(doc.get("task_order", ())),
            tasks={
                name: TaskCode(pits=entry["pits"], python=entry["python"])
                for name, entry in (doc.get("tasks") or {}).items()
            },
            input_defaults={
                k: _decode_value(v)
                for k, v in (doc.get("input_defaults") or {}).items()
            },
            procs=procs,
            channels=tuple(
                (c[0], c[1], c[2], int(c[3])) for c in doc.get("channels", ())
            ),
            output_sources={
                var: (pair[0], int(pair[1]))
                for var, pair in (doc.get("output_sources") or {}).items()
            },
        )

    def content_hash(self) -> str:
        """SHA-256 fingerprint of the canonical document — the cache key."""
        return fingerprint(self.to_dict())


# --------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------- #
def proc_steps(schedule: Schedule, proc: int) -> list[Placement]:
    """The task copies of one processor, in the order the program runs them.

    This is the single point deciding execution order; :func:`lower_steps`
    calls it for every processor, so whatever order it returns is what every
    backend emits and what the static concurrency analyzer
    (:mod:`repro.analysis.concurrency`) checks for deadlock freedom.
    """
    return schedule.on_proc(proc)


def lower_steps(
    schedule: Schedule,
) -> tuple[Procs, tuple[Channel, ...], dict[str, tuple[str, int]]]:
    """The structural half of lowering: the explicit message-passing program.

    Returns the per-processor step lists, the channel table in first-send
    order, and the graph-output wiring ``var -> (producer, processor)``.

    Sender selection matches the replay engine (:mod:`repro.sim.dynamic`):
    each (consumer copy, in-edge) pair takes its datum from the copy of the
    producer with the cheapest static ``finish + comm_cost``; a local copy
    always wins (cost 0 beats any message).
    """
    graph, machine = schedule.graph, schedule.machine
    if not schedule.is_complete():
        missing = [t for t in graph.task_names if t not in schedule]
        raise SimError(f"cannot plan an incomplete schedule; missing: {missing[:5]}")

    # collect copies, reject two copies of one task on one processor (the
    # channel naming scheme keys consumers by processor)
    procs_of: dict[str, list[int]] = {}
    finish_of: dict[tuple[str, int], float] = {}
    for entry in schedule:
        if (entry.task, entry.proc) in finish_of:
            raise SimError(
                f"task {entry.task!r} appears twice on processor {entry.proc}"
            )
        procs_of.setdefault(entry.task, []).append(entry.proc)
        finish_of[(entry.task, entry.proc)] = entry.finish

    # wire edges: chosen sender per (consumer copy, edge)
    reads: dict[tuple[str, int], list[ReadOp]] = {k: [] for k in finish_of}
    recvs: dict[tuple[str, int], list[RecvOp]] = {k: [] for k in finish_of}
    sends: dict[tuple[str, int], list[SendOp]] = {k: [] for k in finish_of}
    for task in graph.task_names:
        for dst_proc in procs_of[task]:
            for edge in graph.in_edges(task):
                sender_proc = min(
                    procs_of[edge.src],
                    key=lambda p: (
                        finish_of[(edge.src, p)]
                        + machine.comm_cost(p, dst_proc, edge.size),
                        p,
                    ),
                )
                if sender_proc == dst_proc:
                    reads[(task, dst_proc)].append(ReadOp(edge.src, edge.var))
                else:
                    recvs[(task, dst_proc)].append(
                        RecvOp(edge.src, edge.var, sender_proc, edge.size)
                    )
                    sends[(edge.src, sender_proc)].append(
                        SendOp(edge.src, task, edge.var, dst_proc, edge.size)
                    )

    # graph inputs are preloaded on every processor that consumes them
    graph_inputs: dict[str, list[str]] = {}
    for var, consumers in graph.graph_inputs.items():
        for task in consumers:
            graph_inputs.setdefault(task, []).append(var)

    procs: Procs = {}
    for proc in machine.procs():
        steps = tuple(
            ComputeStep(
                task=placement.task,
                proc=proc,
                start=placement.start,
                graph_inputs=tuple(graph_inputs.get(placement.task, ())),
                reads=tuple(reads[(placement.task, proc)]),
                recvs=tuple(recvs[(placement.task, proc)]),
                sends=tuple(sends[(placement.task, proc)]),
            )
            for placement in proc_steps(schedule, proc)
        )
        if steps:
            procs[proc] = steps
    channels = dict.fromkeys(
        ComputeStep.send_channel(send)
        for steps in procs.values()
        for step in steps
        for send in step.sends
    )
    output_sources = {
        var: (producer, schedule.primary(producer).proc)
        for var, producer in graph.graph_outputs.items()
    }
    return procs, tuple(channels), output_sources


def lower(schedule: Schedule) -> LoweredProgram:
    """Lower one schedule to its canonical :class:`LoweredProgram`.

    Raises :class:`CodegenError` if any task has no PITS program or a
    program with static errors — exactly the gate the source generators
    have always applied.
    """
    from repro.codegen.pits2py import gen_task_function

    graph = schedule.graph

    task_order = tuple(dict.fromkeys(graph.topological_order()))
    tasks: dict[str, TaskCode] = {}
    for task in task_order:
        source = graph.task(task).program
        if source is None:
            raise CodegenError(
                f"task {task!r} has no PITS program; cannot generate code"
            )
        tasks[task] = TaskCode(pits=source, python=gen_task_function(task, source))

    procs, channels, output_sources = lower_steps(schedule)
    return LoweredProgram(
        design=graph.name,
        machine=schedule.machine.name,
        n_procs=schedule.machine.n_procs,
        scheduler=schedule.scheduler,
        makespan=schedule.makespan(),
        task_order=task_order,
        tasks=tasks,
        input_defaults=dict(graph.input_values),
        procs=procs,
        channels=channels,
        output_sources=output_sources,
    )
