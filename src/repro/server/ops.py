"""The pipeline driver: one validator and one runner per operation.

``banger <cmd>`` and the daemon's ``POST /<op>`` are two doors onto the
same functions.  Per op, ``<op>_options`` types, defaults and range-checks
the options from a plain mapping — the daemon's payload, or the CLI's
parsed flags — and ``run_<op>`` takes a project plus those options and
returns the rich result (speedup's runner is :meth:`BangerProject.speedup`,
conform's :func:`repro.conformance.run`); ``op_<op>`` renders it as a
JSON-able document, the CLI as text.  What a validator can decide without
running the pipeline it refuses as :class:`OpError`; what only the run can
discover stays an ordinary :class:`ReproError`.

The ops run in three places — the daemon's worker processes, its inline
thread executor (``--workers 0``), and unit tests calling them directly —
so they hold no server state: every op gets its project from the payload
and its caching from the process-local :func:`shared_service`.

:func:`execute` wraps an op with counter accounting (the
:class:`~repro.sched.service.ServiceStats` difference across it) so the
daemon can aggregate *work* observability across processes, and
:func:`coalesce_key` derives a request's content-addressed identity:
``(op, project name, graph content_hash, machine content_hash, scheduler
cache key, fingerprint of every other payload field)``.  The daemon
caches and coalesces on a request's bytes; content is addressed where the
work is done, in each process's schedule service and request memo.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Any, Callable

from repro.codegen.backends import get_backend
from repro.env.project import BangerProject
from repro.errors import CodegenError, ReproError, ScheduleError
from repro.graph.serialize import _encode_value, fingerprint
from repro.lint import lint_project, to_json
from repro.machine.scenario import FaultScenario
from repro.sched.incremental import IncrementalResult, incremental_reschedule
from repro.sched.registry import resolve_scheduler, scheduler_cache_key
# ``schedule_from_dict`` is not called here any more, but stays importable
# from this module: bench/trace.py wraps it here as a layer boundary.
from repro.sched.serialize import (  # noqa: F401
    base_schedule_from_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.sched.service import ScheduleRequest
from repro.server.memo import base_of, project_of
# The process-wide ScheduleService every op schedules through.  Worker
# processes each hold one, so repeated misses that land on the same worker
# still reuse its kernel/schedule caches; the daemon's inline thread uses
# the daemon process's own.
from repro.sched.service import default_service as shared_service
from repro.sim import simulate
from repro.viz.gantt import render_gantt


class OpError(ReproError):
    """An unusable request, options or input documents: the daemon answers
    400 (never 500) and the CLI exits 2."""


# --------------------------------------------------------------------- #
# option validators: the one place an option is typed, defaulted, checked
# --------------------------------------------------------------------- #
def _inflate(doc: dict[str, Any]) -> BangerProject:
    return BangerProject.from_dict(doc, service=shared_service())


def _project_from_payload(payload: dict[str, Any]) -> BangerProject:
    """The payload's project, as built by the daemon's job function when it
    serves this payload through its :class:`~repro.server.memo.RequestMemo`,
    else inflated from the document."""
    doc = payload.get("project")
    if not isinstance(doc, dict):
        raise OpError("payload must carry a 'project' object (a saved project "
                      "document, as produced by BangerProject.save)")
    return project_of(doc, _inflate)


def whole(value: Any) -> bool:
    """``3`` or ``3.0``, not what ``int()`` would make a whole number of:
    ``"3"``, ``2.7``, ``true`` (bool is an int to Python, not to the caller)."""
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer()
    )


def _option(
    raw: dict[str, Any], field: str, kind: Any, what: str, default: Any = None
) -> Any:
    """``raw[field]`` as a ``kind``: an instance of it, for ``int`` and
    ``float`` anything that converts to one, for :func:`whole` a whole number
    as an ``int``.  Left out — or null, which is how a flag the CLI was not
    given arrives — it is ``default``."""
    value = raw.get(field)
    if value is None:
        return default
    if kind is whole:
        if whole(value):
            return int(value)
    elif kind in (int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    raise OpError(f"{field} must be {what}, got {value!r}")


def typed_word(text: str) -> Any:
    """A whole number typed as text (a CLI flag, a shell word) as an int,
    anything else as typed; the validator judges it."""
    return int(text) if text.lstrip("-").isdigit() else text


def comma_list(text: str) -> list[Any]:
    """A typed comma list as a list, each item read by :func:`typed_word`."""
    return [typed_word(item.strip()) for item in text.split(",") if item.strip()]


def scheduler_option(raw: dict[str, Any]) -> str:
    name = _option(raw, "scheduler", str, "a scheduler name string", "mh")
    try:
        resolve_scheduler(name)
    except ScheduleError as exc:
        raise OpError(str(exc)) from None
    return name


def _sweep_request(raw: dict[str, Any], scheduler: str) -> ScheduleRequest:
    family = _option(raw, "family", str, "a topology family name")
    counts = _option(
        raw, "proc_counts", (list, tuple), "a list of integers", [1, 2, 4, 8]
    )
    # A string iterates digit by digit and a dict by its keys, so "anything
    # int() accepts per element" is not a check: take a JSON list of whole
    # numbers only.
    if not all(whole(n) for n in counts):
        raise OpError(f"proc_counts must be a list of integers, got {counts!r}")
    if not counts or any(n < 1 for n in counts):
        raise OpError(f"proc_counts must be positive integers, got {counts!r}")
    return ScheduleRequest(
        scheduler=scheduler, proc_counts=tuple(int(n) for n in counts), family=family
    )


def lint_options(raw: dict[str, Any]) -> dict[str, Any]:
    fail_on = raw.get("fail_on")
    if fail_on not in (None, "error", "warning"):
        raise OpError(f"fail_on must be 'error' or 'warning', got {fail_on!r}")
    suppress = _option(raw, "suppress", list, "a list of rule IDs", [])
    return {
        "suppress": [str(r) for r in suppress],
        "fail_on": fail_on or "error",
        "concurrency": bool(raw.get("concurrency")),
        "scheduler": scheduler_option(raw),
    }


def schedule_options(raw: dict[str, Any]) -> dict[str, Any]:
    """``base_schedule`` comes back read as the base to re-time against
    (:func:`base_schedule_from_dict`): its placements, machine, scheduler
    name and each embedded task's work and in-edges, never a second graph.
    It is turned away here, before any run, wherever
    :func:`schedule_from_dict` would refuse the document, messages
    included."""
    base = _option(raw, "base_schedule", dict, "a saved schedule document")
    if base is not None:
        try:
            base = base_of(base, base_schedule_from_dict)
        except ReproError as exc:
            raise OpError(f"malformed base_schedule: {exc}") from None
    return {
        "scheduler": scheduler_option(raw),
        "gantt": bool(raw.get("gantt")),
        "base_schedule": base,
    }


def speedup_options(raw: dict[str, Any]) -> ScheduleRequest:
    return _sweep_request(raw, scheduler_option(raw))


def sweep_options(raw: dict[str, Any]) -> list[ScheduleRequest]:
    """One request per scheduler, in the order asked for."""
    names = _option(raw, "schedulers", list, "a non-empty list of names", ["mh"])
    if not names:
        raise OpError(f"schedulers must be a non-empty list of names, got {names!r}")
    return [
        _sweep_request(raw, scheduler_option({"scheduler": name})) for name in names
    ]


def simulate_options(raw: dict[str, Any], machine: Any) -> dict[str, Any]:
    """``scenario`` comes back parsed and checked against the project's
    ``machine`` (a project without one is the run's to refuse)."""
    scenario = _option(raw, "scenario", dict, "a fault-scenario document")
    reactive = bool(raw.get("reactive"))
    if scenario is None and reactive:
        raise OpError("reactive re-maps around a fault scenario; "
                      "the payload carries no 'scenario'")
    if scenario is not None:
        try:
            scenario = FaultScenario.from_dict(scenario)
        except ReproError as exc:
            raise OpError(f"malformed scenario: {exc}") from None
        if machine is not None:
            try:
                scenario.validate_for(machine)
            except ReproError as exc:
                raise OpError(
                    f"scenario does not fit the project machine: {exc}"
                ) from None
    return {
        "scheduler": scheduler_option(raw),
        "contention": bool(raw.get("contention")),
        "scenario": scenario,
        "reactive": reactive,
        "threshold": _option(raw, "threshold", float, "a number", 2.0),
    }


def codegen_options(raw: dict[str, Any]) -> dict[str, Any]:
    target = _option(raw, "target", str, "a backend name string", "threads")
    try:
        backend = get_backend(target)
    except CodegenError as exc:
        raise OpError(str(exc)) from None
    run = bool(raw.get("run"))
    if run and not backend.runnable:
        raise OpError(f"target {target!r} cannot run in-process; "
                      f"request its source instead")
    return {"scheduler": scheduler_option(raw), "backend": backend, "run": run}


def conform_options(raw: dict[str, Any]) -> dict[str, Any]:
    """Keyword arguments for :func:`repro.conformance.run`; a field left out
    keeps that function's own default."""
    oracles = _option(raw, "oracles", list, "a list of oracle names")
    kwargs = {
        "seed": _option(raw, "seed", int, "an integer"),
        "runs": _option(raw, "runs", int, "an integer"),
        "oracles": [str(o) for o in oracles] if oracles else None,
        "time_budget": _option(raw, "budget", float, "a number"),
    }
    return {name: value for name, value in kwargs.items() if value is not None}


# --------------------------------------------------------------------- #
# runners: a project + validated options -> the result both doors render
# --------------------------------------------------------------------- #
def run_lint(project: BangerProject, opts: dict[str, Any]):
    passed_on = {k: opts[k] for k in ("suppress", "concurrency", "scheduler")}
    return lint_project(project, **passed_on)


def lint_failed(report, opts: dict[str, Any]) -> bool:
    return report.error_count > 0 or (
        opts["fail_on"] == "warning" and report.warning_count > 0
    )


def run_schedule(project: BangerProject, opts: dict[str, Any]):
    """``(schedule, incremental result or None)``.

    A base made on another machine than the project's is a new scheduling
    problem, not an edit: it is scheduled from scratch and reported as the
    ``"cold"`` fallback, as :meth:`BangerProject.reschedule` reports it.
    """
    base = opts["base_schedule"]
    if base is None:
        return project.schedule(opts["scheduler"]), None
    machine = project.machine
    if machine is not None and (
        machine.content_hash() != base.placed.machine.content_hash()
    ):
        schedule = project.schedule(opts["scheduler"])
        n_tasks = len(schedule.graph)
        return schedule, IncrementalResult(
            schedule, n_tasks, n_tasks, 0, fallback="cold"
        )
    # Edit-loop path: re-time against the client's previous schedule
    # instead of scheduling from scratch.  The base document is part of
    # the body, so identical edits still share one computation.
    try:
        result = incremental_reschedule(base, project.flat())
    except ReproError as exc:
        raise OpError(f"incremental reschedule failed: {exc}") from None
    return result.schedule, result


def run_sweep(project: BangerProject, requests: list[ScheduleRequest]):
    """Scheduler name -> its :class:`SpeedupReport`, in request order."""
    return dict(zip((req.scheduler for req in requests), project.speedups(requests)))


def run_simulate(project: BangerProject, opts: dict[str, Any]):
    """``(schedule, replay trace, reactive result or None)``."""
    schedule = project.schedule(opts["scheduler"])
    scenario, contention = opts["scenario"], opts["contention"]
    if scenario is None:
        return schedule, simulate(schedule, contention=contention), None
    if opts["reactive"]:
        from repro.sched.reactive import reactive_execute

        result = reactive_execute(
            schedule, scenario, threshold=opts["threshold"], contention=contention
        )
        return schedule, result.trace, result
    from repro.sim.dynamic import simulate_dynamic

    return schedule, simulate_dynamic(schedule, scenario, contention=contention), None


def run_codegen(project: BangerProject, opts: dict[str, Any]):
    """``(lowered program, source or None, outputs or None)``."""
    backend = opts["backend"]
    program = project.lower(opts["scheduler"])
    source = backend.emit(program) if backend.emits_source else None
    outputs = backend.run(program) if opts["run"] else None
    return program, source, outputs


# --------------------------------------------------------------------- #
# the ops: validate -> run -> document
# --------------------------------------------------------------------- #
def op_lint(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    opts = lint_options(payload)
    report = run_lint(project, opts)
    doc = to_json(report)
    doc["type"] = "banger-lint"
    doc["ok"] = not lint_failed(report, opts)
    return doc


def op_schedule(payload: dict[str, Any]) -> dict[str, Any]:
    from repro.sched.metrics import report as schedule_report

    project = _project_from_payload(payload)
    opts = schedule_options(payload)
    schedule, result = run_schedule(project, opts)
    doc: dict[str, Any] = {
        "type": "banger-schedule",
        "project": project.name,
        "scheduler": schedule.scheduler,
        "n_procs": schedule.machine.n_procs,
        "makespan": schedule.makespan(),
        "report": asdict(schedule_report(schedule)),
        "schedule": schedule_to_dict(schedule),
    }
    if result is not None:
        doc["incremental"] = {
            "n_tasks": result.n_tasks,
            "n_dirty": result.n_dirty,
            "n_reused": result.n_reused,
            "reused_fraction": result.reused_fraction,
            "unchanged": result.unchanged,
            "fallback": result.fallback,
        }
    if opts["gantt"]:
        doc["gantt"] = render_gantt(schedule)
    return doc


def op_speedup(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    report = project.speedup(speedup_options(payload))
    doc = asdict(report)
    doc["type"] = "banger-speedup"
    doc["points"] = [asdict(p) for p in report.points]
    return doc


def sweep_document(project: BangerProject, reports: dict[str, Any]) -> dict[str, Any]:
    """The ``banger-sweep`` document (``banger sweep --json`` adds to it)."""
    return {
        "type": "banger-sweep",
        "project": project.name,
        "schedulers": {
            name: {
                "family": rep.family,
                "serial_time": rep.serial_time,
                "max_parallelism": rep.max_parallelism,
                "points": [asdict(p) for p in rep.points],
            }
            for name, rep in reports.items()
        },
    }


def op_sweep(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    return sweep_document(project, run_sweep(project, sweep_options(payload)))


def op_simulate(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    opts = simulate_options(payload, project.machine)
    schedule, trace, result = run_simulate(project, opts)
    doc: dict[str, Any] = {
        "type": "banger-simulate",
        "project": project.name,
        "scheduler": schedule.scheduler,
        "contention": opts["contention"],
        "static_makespan": schedule.makespan(),
        "simulated_makespan": trace.makespan(),
    }
    if opts["scenario"] is None:
        return doc
    doc["scenario"] = opts["scenario"].name or "scenario"
    if result is not None:
        doc["reactive"] = {
            "threshold": opts["threshold"],
            "rounds": result.n_rounds,
            "remapped_tasks": result.total_remaps,
            "passive_makespan": result.traces[0].makespan(),
        }
    doc["stranded"] = sorted(trace.stranded)
    doc["killed"] = sorted(trace.killed)
    doc["lost_messages"] = len(trace.lost)
    return doc


def op_codegen(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    opts = codegen_options(payload)
    try:
        program, source, outputs = run_codegen(project, opts)
    except CodegenError as exc:
        raise OpError(str(exc)) from None
    doc: dict[str, Any] = {
        "type": "banger-codegen",
        "project": project.name,
        "target": opts["backend"].name,
        "scheduler": program.scheduler,
        "n_procs": program.n_procs,
        "makespan": program.makespan,
        "ir_hash": program.content_hash(),
    }
    if source is not None:
        doc["source"] = source
    if outputs is not None:
        doc["outputs"] = {k: _encode_value(v) for k, v in outputs.items()}
    return doc


def op_conform(payload: dict[str, Any]) -> dict[str, Any]:
    from repro.conformance import run

    doc = run(**conform_options(payload)).as_dict()
    doc["type"] = "banger-conform"
    return doc


# --------------------------------------------------------------------- #
# debug ops (routed only when the daemon runs with --debug)
# --------------------------------------------------------------------- #
def op_crash(payload: dict[str, Any]) -> dict[str, Any]:
    """Kill the hosting process mid-request (crash-isolation testing)."""
    os._exit(13)


def op_sleep(payload: dict[str, Any]) -> dict[str, Any]:
    """Hold a worker busy (timeout / drain / backpressure testing)."""
    seconds = float(payload.get("seconds", 1.0))
    time.sleep(min(seconds, 60.0))
    return {"type": "banger-sleep", "slept": seconds}


def op_boom(payload: dict[str, Any]) -> dict[str, Any]:
    """Raise an unexpected exception (500-path testing)."""
    raise RuntimeError("boom requested")


OPS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "lint": op_lint,
    "schedule": op_schedule,
    "speedup": op_speedup,
    "sweep": op_sweep,
    "simulate": op_simulate,
    "codegen": op_codegen,
    "conform": op_conform,
    "crash": op_crash,
    "sleep": op_sleep,
    "boom": op_boom,
}

#: Ops only reachable when the daemon was started with ``--debug``.
DEBUG_OPS = frozenset({"crash", "sleep", "boom"})

#: Ops whose payload carries a project document (keyed by content hashes).
PROJECT_OPS = frozenset({"lint", "schedule", "speedup", "sweep", "simulate", "codegen"})


def coalesce_key(op: str, payload: dict[str, Any]) -> str:
    """The content-addressed identity of one request.

    Two requests with equal keys are guaranteed the same answer.  Project
    ops are keyed by the project's name (replies quote it), the flattened
    graph's content hash, the machine's content hash, the resolved
    scheduler's cache key, and the fingerprint of every other payload
    field — whatever option an op reads is in the key without a per-op
    table to keep in step — so a reordered-but-identical JSON body maps to
    the same key.  The daemon caches on the body's bytes instead; the
    benchmark's in-process replay keys its responses with this.
    """
    if op not in OPS:
        raise OpError(f"unknown operation {op!r}")
    if op in PROJECT_OPS:
        project = _project_from_payload(payload)
        fps = project.fingerprints()
        if op in ("schedule", "speedup", "simulate", "codegen"):
            sched_key = scheduler_cache_key(
                resolve_scheduler(scheduler_option(payload))
            )
        else:
            sched_key = ""
        options = {f: v for f, v in payload.items() if f != "project"}
        return fingerprint([
            op, project.name, fps["graph"], fps["machine"], sched_key,
            fingerprint(options),
        ])
    return fingerprint([op, payload])


#: :class:`ServiceStats` fields that are levels, not work: no difference.
_GAUGES = ("entries", "last_sweep_seconds")
#: The service's hits and misses as the daemon's ``work`` names them.
_WORK_NAMES = {"hits": "service_hits", "misses": "sched_runs"}


def work_mark() -> dict[str, Any]:
    """The shared service's counters now, for :func:`work_since`."""
    return vars(shared_service().stats())


def work_since(before: dict[str, Any]) -> dict[str, Any]:
    """The work done since ``before`` (a :func:`work_mark`): every field of
    the shared service's :class:`ServiceStats` but the gauges, differenced."""
    return {
        _WORK_NAMES.get(name, name): value - before[name]
        for name, value in work_mark().items()
        if name not in _GAUGES
    }


def execute(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Run one op with counter accounting.

    Returns ``{"result": <response doc>, "counters": <work deltas>}``, the
    counters being :func:`work_since` the op started.  The daemon's job
    function (:func:`repro.server.workers.serve`) encodes ``result`` into
    the response bytes in the same process, a worker or the inline thread,
    and counts the work of the whole job, its parse included, the same
    way; the daemon folds those counters into ``/metrics`` so scheduler
    runs are observable no matter which process performed them.
    """
    fn = OPS.get(op)
    if fn is None:
        raise OpError(f"unknown operation {op!r}")
    before = work_mark()
    return {"result": fn(payload), "counters": work_since(before)}
