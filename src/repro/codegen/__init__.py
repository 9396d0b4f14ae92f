"""Code generation — the paper's promised final step, implemented.

One lowering IR, many targets: a schedule is lowered once to a
:class:`~repro.codegen.ir.LoweredProgram` (:func:`lower`), and pluggable
backends (:mod:`repro.codegen.backends`) render or execute it:

* ``threads`` — a runnable threaded message-passing Python program;
* ``inproc`` — direct in-process execution of the IR, with an event trace;
* ``mpi`` — an mpi4py script (one rank per processor);
* ``c`` — C-like pseudocode for human review.

The public entry points are :func:`generate` (source text for any target)
and :func:`run` (execute on a runnable target); :func:`list_backends`
enumerates targets.

PITS-level translation lives in :mod:`repro.codegen.pits2py`
(:func:`gen_task_function`), with runtime semantics shared with the
interpreter via :mod:`repro.codegen.runtime`.
"""

from repro.codegen.api import as_lowered, generate, run
from repro.codegen.backends import (
    BACKENDS,
    Backend,
    ExecutionResult,
    TraceEvent,
    backend_names,
    get_backend,
    list_backends,
    run_generated,
    trace_problems,
)
from repro.codegen.ir import LoweredProgram, lower
from repro.codegen.pits2py import function_name, gen_expr, gen_task_function, mangle

__all__ = [
    "BACKENDS",
    "Backend",
    "ExecutionResult",
    "LoweredProgram",
    "TraceEvent",
    "as_lowered",
    "backend_names",
    "function_name",
    "gen_expr",
    "gen_task_function",
    "generate",
    "get_backend",
    "list_backends",
    "lower",
    "mangle",
    "run",
    "run_generated",
    "trace_problems",
]
