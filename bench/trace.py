"""Spans around the calls into each layer, recorded from outside the program.

The program carries no tracing of its own yet, so the traced run wraps the
public functions of each package under ``src/repro/`` *from here*: while a
:class:`Tracer` is installed, every call the real code makes into a wrapped
function records a span (name, start, end, parent, operation id).  The
benchmark then replays operations through the real ``ops.coalesce_key`` and
``ops.execute``, so spans appear in the daemon's own order without this file
re-implementing any of it.  Spans stay in memory until :meth:`Tracer.write`.

End-to-end metrics are measured with no tracer installed; the difference
between the two runs is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from bench.spec import BenchError

#: Schedulers whose ``schedule`` method gets its own ``sched.loop.<name>`` span.
SCHEDULERS = ("mh", "etf", "dls", "hlfet")


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin_op(self, kind: str, **attrs: Any) -> int:
        """Start a new operation; spans recorded next carry its id."""
        self._op = len(self.ops)
        self.ops.append({"op": self._op, "kind": kind, **attrs})
        return self._op

    def annotate(self, **attrs: Any) -> None:
        self.ops[self._op].update(attrs)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(
            id=len(self.spans), name=name, op=self._op,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording a span per call; ``name`` may depend on the call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # wrapping the program's layer boundaries
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every boundary :func:`layer_calls` lists, until :meth:`remove`."""
        for target, attr, name in layer_calls():
            owner = _resolve(target)
            original = owner.__dict__.get(attr)
            if original is None:
                raise BenchError(f"cannot trace {target}.{attr}: no such attribute")
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self.wrap(original.__func__, name))
            else:
                wrapped = self.wrap(original, name)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the part its direct children cover."""
        own = {s.id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def per_op(self, name: str, self_time: bool = False) -> dict[int, float]:
        """Operation id -> summed milliseconds of its spans called ``name``."""
        own = self.self_ms() if self_time else None
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                out[s.op] += own[s.id] if own is not None else s.ms
        return dict(out)

    def per_op_prefix(self, prefixes: tuple[str, ...]) -> dict[int, float]:
        """Operation id -> summed *self* time of spans under the prefixes."""
        own = self.self_ms()
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name.startswith(prefixes):
                out[s.op] += own[s.id]
        return dict(out)

    def count_per_op(self, name: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.name == name:
                out[s.op] += 1
        return dict(out)

    def root_ms(self) -> dict[int, float]:
        """Operation id -> summed duration of its top-level spans."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is None:
                out[s.op] += s.ms
        return dict(out)

    def write(self, path: Path, **header: Any) -> None:
        own = self.self_ms()
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "type": "banger-bench-trace",
            **header,
            "ops": self.ops,
            "spans": [
                {
                    "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                    "start_ms": (s.start - t0) * 1000.0,
                    "end_ms": (s.end - t0) * 1000.0,
                    "self_ms": own[s.id],
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _resolve(target: str) -> Any:
    """``pkg.module`` or ``pkg.module:Class`` -> the object owning the attr."""
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def _sim_name(schedule: Any, contention: bool = False) -> str:
    return "sim.contention" if contention else "sim.static"


def layer_calls() -> list[tuple[str, str, str | Callable[..., str]]]:
    """``(owner, attribute, span name)`` for every wrapped layer boundary.

    Methods are wrapped on their class, so callers in the program and in
    the benchmark are both seen.  Module-level functions are wrapped where
    the *program* looks them up (``from x import f`` binds a copy per
    importing module); benchmark code that calls one directly wraps it with
    :meth:`Tracer.wrap` instead, so nothing is counted twice.
    """
    from repro.codegen.backends import BACKENDS
    from repro.sched.registry import get_scheduler

    calls: list[tuple[str, str, str | Callable[..., str]]] = [
        ("repro.env.project:BangerProject", "from_dict", "graph.inflate"),
        ("repro.env.project:BangerProject", "flat", "graph.flatten"),
        ("repro.env.project:BangerProject", "fingerprints", "graph.fingerprint"),
        ("repro.env.project:BangerProject", "lower", "codegen.lower"),
        ("repro.env.project:BangerProject", "run", "calc.run"),
        ("repro.sched.service:ScheduleService", "schedule", "sched.service"),
        ("repro.sched.core:SchedKernel", "__init__", "sched.kernel_build"),
        ("repro.sched.core", "compiled_for", "machine.compiled"),
        ("repro.sched.service", "compiled_for", "machine.compiled"),
        ("repro.server.ops", "incremental_reschedule", "sched.incremental"),
        ("repro.server.ops", "schedule_from_dict", "sched.schedule_from_dict"),
        ("repro.server.ops", "schedule_to_dict", "sched.schedule_to_dict"),
        ("repro.sched.metrics", "report", "sched.report"),
        ("repro.server.ops", "simulate", _sim_name),
        ("repro.sim.dynamic", "simulate_dynamic", "sim.dynamic"),
        ("repro.sched.reactive", "reactive_execute", "sched.reactive"),
        ("repro.server.ops", "lint_project", "lint.project"),
        ("repro.lint.engine", "lint_comm_plan", "analysis.concurrency"),
    ]
    for sched in SCHEDULERS:
        cls = type(get_scheduler(sched))
        calls.append(
            (f"{cls.__module__}:{cls.__name__}", "schedule", f"sched.loop.{sched}")
        )
    for target, cls in BACKENDS.items():
        owner = f"{cls.__module__}:{cls.__name__}"
        if "emit" in cls.__dict__:
            calls.append((owner, "emit", f"codegen.emit.{target}"))
        if "run" in cls.__dict__:
            calls.append((owner, "run", f"codegen.run_{target}"))
    return calls
