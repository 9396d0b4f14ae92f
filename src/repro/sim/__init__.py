"""Execution substrate: simulated target machines and real executors.

* :func:`simulate` — discrete-event replay of a schedule on the machine
  model (our stand-in for the paper's physical hypercubes), with optional
  link contention; returns a :class:`Trace`;
* :func:`simulate_dynamic` — the same replay engine under heterogeneity
  factors and a fault scenario; returns a :class:`DynamicTrace`;
* :func:`run_dataflow` — sequential reference execution of a design's PITS
  programs (semantic ground truth);
* :func:`run_parallel` / :class:`ThreadedExecutor` — real threads + queues
  executing the schedule's message-passing program
  (:func:`repro.codegen.ir.lower_steps`) with the PITS interpreter;
* :func:`calibrate_works` — measure task weights by trial-running a design.
"""

from repro.sim.dataflow_exec import (
    DataflowResult,
    calibrate_works,
    collect_task_env,
    required_outputs,
    run_dataflow,
    run_task,
)
from repro.sim.dynamic import (
    DynamicTrace,
    simulate,
    simulate_dynamic,
)
from repro.sim.engine import EventEngine
from repro.sim.stats import TaskTiming, TraceStats, trace_statistics
from repro.sim.threaded import ParallelResult, ThreadedExecutor, run_parallel
from repro.sim.trace import MessageHop, TaskRun, Trace, compare_with_static

__all__ = [
    "DataflowResult",
    "DynamicTrace",
    "EventEngine",
    "MessageHop",
    "ParallelResult",
    "TaskRun",
    "TaskTiming",
    "ThreadedExecutor",
    "Trace",
    "TraceStats",
    "trace_statistics",
    "calibrate_works",
    "collect_task_env",
    "compare_with_static",
    "required_outputs",
    "run_dataflow",
    "run_parallel",
    "run_task",
    "simulate",
    "simulate_dynamic",
]
