"""Sequential reference executor for task graphs with PITS programs.

This is the semantic ground truth: run every task's routine in topological
order, passing each edge's variable from producer to consumer.  The threaded
runs of a lowered program (:mod:`repro.codegen`) and the generated
message-passing programs must produce exactly the same outputs (tested),
differing only in *where* and *when* tasks run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.calc.interp import Interpreter, RunResult
from repro.calc.parser import parse
from repro.errors import SimError
from repro.graph.taskgraph import TaskGraph


@dataclass
class DataflowResult:
    """Outcome of executing a whole dataflow program."""

    outputs: dict[str, Any]
    task_results: dict[str, RunResult] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def total_ops(self) -> float:
        return sum(r.ops for r in self.task_results.values())

    def displayed(self) -> list[str]:
        out: list[str] = []
        for task in self.order:
            out.extend(f"{task}: {line}" for line in self.task_results[task].displayed)
        return out

    def measured_works(self) -> dict[str, float]:
        """task -> exact operation count (feed to TaskGraph.set_work)."""
        return {t: r.ops for t, r in self.task_results.items()}


def collect_task_env(
    tg: TaskGraph,
    task: str,
    produced: dict[tuple[str, str], Any],
    inputs: dict[str, Any],
) -> dict[str, Any]:
    """Variable bindings available to ``task``: in-edge data + graph inputs."""
    env: dict[str, Any] = {}
    for edge in tg.in_edges(task):
        if not edge.var:
            continue  # pure control dependence carries no datum
        key = (edge.src, edge.var)
        if key not in produced:
            raise SimError(
                f"task {task!r} needs {edge.var!r} from {edge.src!r}, "
                "which produced no such output"
            )
        env[edge.var] = produced[key]
    for var, consumers in tg.graph_inputs.items():
        if task in consumers:
            if var not in inputs:
                raise SimError(f"graph input {var!r} has no value")
            env[var] = inputs[var]
    return env


def run_task(tg: TaskGraph, task: str, env: dict[str, Any]) -> RunResult:
    """Execute one task's PITS program against its bound environment."""
    source = tg.task(task).program
    if source is None:
        raise SimError(
            f"task {task!r} has no PITS program; write one on the calculator "
            "panel before running the design"
        )
    program = parse(source)
    missing = [v for v in program.inputs if v not in env]
    if missing:
        raise SimError(
            f"task {task!r}: program inputs {missing} are not supplied by any "
            f"in-edge or graph input (available: {sorted(env)})"
        )
    interp = Interpreter(program)
    return interp.run(**{v: env[v] for v in program.inputs})


def required_outputs(tg: TaskGraph, task: str) -> set[str]:
    """Variables ``task`` must produce: out-edge vars + its graph outputs."""
    need = {e.var for e in tg.out_edges(task) if e.var}
    need |= {var for var, producer in tg.graph_outputs.items() if producer == task}
    return need


def run_dataflow(tg: TaskGraph, inputs: dict[str, Any] | None = None) -> DataflowResult:
    """Execute the whole dataflow program sequentially.

    ``inputs`` override/extend the graph's stored initial values
    (:attr:`TaskGraph.input_values`).
    """
    bound = dict(tg.input_values)
    bound.update(inputs or {})
    missing = [v for v in tg.graph_inputs if v not in bound]
    if missing:
        raise SimError(f"missing graph input value(s): {', '.join(missing)}")

    produced: dict[tuple[str, str], Any] = {}
    result = DataflowResult(outputs={})
    for task in tg.topological_order():
        env = collect_task_env(tg, task, produced, bound)
        run = run_task(tg, task, env)
        result.task_results[task] = run
        result.order.append(task)
        need = required_outputs(tg, task)
        missing_out = need - set(run.outputs)
        if missing_out:
            raise SimError(
                f"task {task!r} did not produce {sorted(missing_out)} "
                f"(program outputs: {sorted(run.outputs)})"
            )
        for var, value in run.outputs.items():
            produced[(task, var)] = value

    for var, producer in tg.graph_outputs.items():
        result.outputs[var] = produced[(producer, var)]
    return result


def calibrate_works(tg: TaskGraph, inputs: dict[str, Any] | None = None) -> TaskGraph:
    """Return a copy of ``tg`` whose task weights are *measured* op counts.

    This is the Banger workflow: trial-run the design once, then schedule
    with exact weights instead of guesses.
    """
    result = run_dataflow(tg, inputs)
    out = tg.copy()
    for task, ops in result.measured_works().items():
        out.set_work(task, max(ops, 1e-9))
    return out
