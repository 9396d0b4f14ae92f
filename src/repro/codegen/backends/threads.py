"""The ``threads`` backend: the runnable threaded message-passing program.

The emitted program (pinned by the golden files under
``tests/codegen/golden/``) takes every structural decision — step order,
channel set, task-function bodies — from the shared
:class:`~repro.codegen.ir.LoweredProgram`.  It runs one thread per
processor over single-message channels (:func:`repro.codegen.runtime.run_procs`),
and its ``main`` ends with the first processor's exception.

:meth:`ThreadsBackend.run` compiles the emitted task functions and runs
them on the one executor, :func:`~repro.codegen.backends.inproc.run_workers`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.codegen import runtime as _rt
from repro.codegen.backends.base import Backend
from repro.codegen.backends.inproc import TaskFunction, run_workers
from repro.codegen.ir import ComputeStep, LoweredProgram
from repro.codegen.pits2py import function_name
from repro.errors import CodegenError

_I = "    "


def _value_repr(value: Any) -> str:
    if isinstance(value, np.ndarray):
        return f"_np.array({value.tolist()!r}, dtype=float)"
    if isinstance(value, (bool, float, int, str)):
        return repr(float(value) if isinstance(value, int) and not isinstance(value, bool) else value)
    if isinstance(value, (list, tuple)):
        return f"_np.array({list(value)!r}, dtype=float)"
    raise CodegenError(f"cannot embed input value of type {type(value).__name__}")


def _channel_key(src_task: str, dst_task: str, var: str, dst_proc: int) -> str:
    return repr((src_task, dst_task, var, dst_proc))


class ThreadsBackend(Backend):
    """Threaded message-passing Python source (and its in-process runner)."""

    name = "threads"
    description = (
        "runnable Python program: one thread per processor, "
        "single-message channels"
    )
    emits_source = True
    runnable = True

    def emit(self, program: LoweredProgram, module_doc: str = "", **opts: Any) -> str:
        lines: list[str] = []
        doc = module_doc or (
            f"Parallel program generated by Banger codegen.\n\n"
            f"Design: {program.design}\n"
            f"Target: {program.machine} "
            f"({program.n_procs} processors)\n"
            f"Scheduler: {program.scheduler}\n"
            f"Predicted makespan: {program.makespan:.3f} time units"
        )
        lines.append(f'"""{doc}\n"""')
        lines.append("")
        lines.append("import numpy as _np")
        lines.append("")
        lines.append("from repro.codegen import runtime as _rt")
        lines.append("")
        lines.append("")

        # --- task routines ------------------------------------------------ #
        for task in program.task_order:
            lines.append(program.tasks[task].python)
            lines.append("")
            lines.append("")

        # --- input defaults ----------------------------------------------- #
        defaults = ", ".join(
            f"{var!r}: {_value_repr(value)}"
            for var, value in sorted(program.input_defaults.items())
        )
        lines.append(f"_INPUT_DEFAULTS = {{{defaults}}}")
        lines.append("")
        lines.append("")

        # --- one function per processor ----------------------------------- #
        used_procs = program.procs_used()
        channel_keys: list[str] = []
        for step in program.all_steps():
            for send in step.sends:
                channel_keys.append(
                    _channel_key(send.src_task, send.dst_task, send.var, send.dst_proc)
                )

        for proc in used_procs:
            lines += _gen_proc_function(program, proc)
            lines.append("")
            lines.append("")

        # --- main ----------------------------------------------------------- #
        lines.append("def main(inputs=None):")
        lines.append(
            f'{_I}"""Run the parallel program; returns the design outputs, or '
            f'raises\n{_I}the first exception a processor raised."""'
        )
        lines.append(f"{_I}values = dict(_INPUT_DEFAULTS)")
        lines.append(f"{_I}values.update(inputs or {{}})")
        if channel_keys:
            lines.append(f"{_I}channels = {{")
            for key in channel_keys:
                lines.append(f"{_I}{_I}{key}: _rt.Channel(),")
            lines.append(f"{_I}}}")
        else:
            lines.append(f"{_I}channels = {{}}")
        lines.append(f"{_I}results = {{}}")
        lines.append(f"{_I}displays = []")
        lines.append(f"{_I}procs = {{")
        for proc in used_procs:
            lines.append(f"{_I}{_I}{proc}: _proc_{proc},")
        lines.append(f"{_I}}}")
        lines.append(
            f"{_I}_rt.run_procs(procs, channels, values, results, displays)"
        )
        lines.append(f"{_I}for line in displays:")
        lines.append(f"{_I}{_I}print(line)")
        out_items = ", ".join(
            f"{var!r}: results[({task!r}, {var!r})]"
            for var, (task, _) in sorted(program.output_sources.items())
        )
        lines.append(f"{_I}return {{{out_items}}}")
        lines.append("")
        lines.append("")
        lines.append('if __name__ == "__main__":')
        lines.append(f"{_I}for name, value in sorted(main().items()):")
        lines.append(f'{_I}{_I}print(f"{{name}} = {{value}}")')
        lines.append("")
        return "\n".join(lines)

    def run(
        self, program: LoweredProgram, inputs: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Run the emitted task functions on the one executor."""
        return run_workers(program, inputs, compile_task_functions(program)).outputs


def compile_task_functions(program: LoweredProgram) -> dict[str, TaskFunction]:
    """Compile the IR's stored task bodies into callables, once per run."""
    namespace: dict[str, Any] = {
        "__name__": "banger_threads",
        "_np": np,
        "_rt": _rt,
    }
    fns: dict[str, TaskFunction] = {}
    for task in program.task_order:
        code = program.tasks[task].python
        exec(compile(code, f"<banger-ir:{task}>", "exec"), namespace)
        fns[task] = namespace[function_name(task)]
    return fns


def _gen_proc_function(program: LoweredProgram, proc: int) -> list[str]:
    lines = [f"def _proc_{proc}(channels, inputs, results, displays):"]
    lines.append(f'{_I}"""Steps of processor {proc}, in schedule order."""')
    lines.append(f"{_I}store = {{}}")
    outputs_here = {
        (task, var)
        for var, (task, p) in program.output_sources.items()
        if p == proc
    }
    for step in program.steps(proc):
        lines += _gen_step(step, outputs_here)
    if not program.steps(proc):
        lines.append(f"{_I}pass")
    return lines


def _gen_step(step: ComputeStep, outputs_here: set[tuple[str, str]]) -> list[str]:
    lines = [f"{_I}# --- {step.task} (scheduled start {step.start:g}) ---"]
    lines.append(f"{_I}env = {{}}")
    for var in step.graph_inputs:
        lines.append(f"{_I}env[{var!r}] = inputs[{var!r}]")
    for read in step.reads:
        if read.var:
            lines.append(f"{_I}env[{read.var!r}] = store[({read.src_task!r}, {read.var!r})]")
    for recv in step.recvs:
        key = _channel_key(recv.src_task, step.task, recv.var, step.proc)
        if recv.var:
            lines.append(f"{_I}env[{recv.var!r}] = channels[{key}].get()")
        else:
            lines.append(f"{_I}channels[{key}].get()")
    lines.append(
        f"{_I}out = {function_name(step.task)}("
        f"{{k: env[k] for k in env}}, "
        f"lambda line: displays.append({step.task!r} + ': ' + line))"
    )
    lines.append(f"{_I}for _k, _v in out.items():")
    lines.append(f"{_I}{_I}store[({step.task!r}, _k)] = _v")
    for send in step.sends:
        key = _channel_key(send.src_task, send.dst_task, send.var, send.dst_proc)
        payload = f"store[({send.src_task!r}, {send.var!r})]" if send.var else "None"
        lines.append(f"{_I}channels[{key}].put({payload})")
    for task, var in sorted(outputs_here):
        if task == step.task:
            lines.append(f"{_I}results[({task!r}, {var!r})] = store[({task!r}, {var!r})]")
    return lines


def run_generated(source: str, inputs: dict[str, Any] | None = None) -> dict[str, Any]:
    """Execute generated program text in a fresh namespace (for tests)."""
    namespace: dict[str, Any] = {"__name__": "banger_generated"}
    exec(compile(source, "<banger-generated>", "exec"), namespace)
    return namespace["main"](inputs)
