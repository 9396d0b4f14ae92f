"""Real parallel execution of a scheduled design with one thread per processor.

This is the "run the whole program" end of Banger's instant feedback: the
schedule's message-passing program (:func:`repro.codegen.ir.lower_steps`)
is executed by the one worker loop
(:func:`repro.codegen.backends.inproc.run_workers`) — real threads and real
queues standing in for processors and links, mpi4py-style (blocking ``recv``
from a per-channel mailbox, eager ``send`` after the producing task
finishes) — with every task run by the PITS interpreter, so no program is
translated.  Results must match the sequential reference executor exactly —
scheduling must never change answers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.calc.interp import RunResult
from repro.codegen.backends.inproc import run_workers
from repro.codegen.ir import ComputeStep, lower_steps
from repro.errors import SimError
from repro.sched.schedule import Schedule
from repro.sim.dataflow_exec import required_outputs, run_task


@dataclass
class ParallelResult:
    """Outcome of a threaded run."""

    outputs: dict[str, Any]
    task_results: dict[str, RunResult] = field(default_factory=dict)
    procs_used: list[int] = field(default_factory=list)
    messages_sent: int = 0

    def total_ops(self) -> float:
        return sum(r.ops for r in self.task_results.values())


class ThreadedExecutor:
    """Executes a schedule's message-passing program with real threads.

    Parameters
    ----------
    schedule:
        A complete, feasible schedule whose tasks carry PITS programs.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.procs, self.channels, self.output_sources = lower_steps(schedule)

    def run(self, inputs: dict[str, Any] | None = None) -> ParallelResult:
        graph = self.schedule.graph
        bound = dict(graph.input_values)
        bound.update(inputs or {})
        missing = [v for v in graph.graph_inputs if v not in bound]
        if missing:
            raise SimError(f"missing graph input value(s): {', '.join(missing)}")

        task_results: dict[str, RunResult] = {}
        lock = threading.Lock()

        def run_step(step: ComputeStep, env: dict[str, Any]) -> dict[str, Any]:
            run = run_task(graph, step.task, env)
            with lock:
                # under duplication several copies run; keep the first
                task_results.setdefault(step.task, run)
            for need in required_outputs(graph, step.task):
                if need not in run.outputs:
                    raise SimError(f"task {step.task!r} did not produce {need!r}")
            return run.outputs

        outputs = run_workers(
            self.procs, self.channels, self.output_sources,
            bound, run_step, lambda *_event: None, SimError,
        )
        return ParallelResult(
            outputs=outputs,
            task_results=task_results,
            procs_used=sorted(self.procs),
            # the run completed, so every step performed every send
            messages_sent=sum(
                len(step.sends) for steps in self.procs.values() for step in steps
            ),
        )


def run_parallel(schedule: Schedule, inputs: dict[str, Any] | None = None) -> ParallelResult:
    """One-call threaded execution of a scheduled design."""
    return ThreadedExecutor(schedule).run(inputs)
