"""The daemon's operations: one pure function per compute endpoint.

Each op maps a JSON payload to a JSON-able result document.  The same
functions run in three places — the daemon's worker processes, its inline
thread executor (``--workers 0``), and unit tests calling them directly —
so they hold no server state: every op gets its project from the payload
and its caching from the process-local :func:`shared_service`.

:func:`execute` wraps an op with counter accounting (kernel +
:class:`~repro.sched.service.ServiceStats` deltas) so the daemon can
aggregate *work* observability across processes, and
:func:`coalesce_key` derives the content-addressed identity the daemon
coalesces and caches on: ``(op, project name, graph content_hash, machine
content_hash, scheduler cache key, every other payload field)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Any, Callable

from repro.env.project import BangerProject
from repro.errors import ReproError
from repro.graph.serialize import fingerprint
from repro.lint import lint_project, to_json
from repro.sched.core import kernel_counters
from repro.sched.reactive import reactive_counters
from repro.sched.incremental import incremental_reschedule
from repro.sched.registry import resolve_scheduler, scheduler_cache_key
from repro.sched.serialize import schedule_from_dict, schedule_to_dict
from repro.sched.service import ScheduleRequest, ScheduleService
from repro.sim import dynamic_counters, simulate
from repro.viz.gantt import render_gantt


class OpError(ReproError):
    """A request payload the ops cannot serve — answered 400, never 500."""


# --------------------------------------------------------------------- #
# the process-local service (one per daemon worker / inline host)
# --------------------------------------------------------------------- #
_SERVICE: ScheduleService | None = None


def shared_service() -> ScheduleService:
    """The process-local :class:`ScheduleService` every op schedules through.

    Worker processes each hold one, so repeated misses that land on the
    same worker still reuse its kernel/schedule caches; the daemon's inline
    mode shares one across its whole thread pool (it is thread-safe).
    """
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = ScheduleService()
    return _SERVICE


def reset_shared_service() -> None:
    """Drop the process-local service (tests)."""
    global _SERVICE
    _SERVICE = None


# --------------------------------------------------------------------- #
# payload helpers
# --------------------------------------------------------------------- #
def _project_from_payload(payload: dict[str, Any]) -> BangerProject:
    doc = payload.get("project")
    if not isinstance(doc, dict):
        raise OpError("payload must carry a 'project' object (a saved project "
                      "document, as produced by BangerProject.save)")
    return BangerProject.from_dict(doc, service=shared_service())


def _proc_counts(payload: dict[str, Any]) -> tuple[int, ...] | None:
    raw = payload.get("proc_counts")
    if raw is None:
        return None
    # A string iterates digit by digit and a dict by its keys, so "anything
    # int() accepts per element" is not a check: take a JSON list of whole
    # numbers only (bool is an int to Python, not to the caller).
    if not isinstance(raw, (list, tuple)) or not all(
        (isinstance(n, int) and not isinstance(n, bool))
        or (isinstance(n, float) and n.is_integer())
        for n in raw
    ):
        raise OpError(f"proc_counts must be a list of integers, got {raw!r}")
    counts = tuple(int(n) for n in raw)
    if not counts or any(n < 1 for n in counts):
        raise OpError(f"proc_counts must be positive integers, got {raw!r}")
    return counts


def _scheduler_name(payload: dict[str, Any], key: str = "scheduler") -> str:
    name = payload.get(key, "mh")
    if not isinstance(name, str):
        raise OpError(f"{key} must be a scheduler name string, got {name!r}")
    return name


def _number(payload: dict[str, Any], field: str, cast: type, default: Any) -> Any:
    """``cast(payload[field])``; options are user input, so a bad one is a 400."""
    raw = payload.get(field, default)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise OpError(f"{field} must be {kind}, got {raw!r}") from None


def _request(payload: dict[str, Any]) -> ScheduleRequest:
    family = payload.get("family")
    if family is not None and not isinstance(family, str):
        raise OpError(f"family must be a topology family name, got {family!r}")
    return ScheduleRequest(
        scheduler=_scheduler_name(payload),
        proc_counts=_proc_counts(payload),
        family=family,
    )


# --------------------------------------------------------------------- #
# the ops
# --------------------------------------------------------------------- #
def op_lint(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    suppress = payload.get("suppress") or []
    if not isinstance(suppress, list):
        raise OpError(f"suppress must be a list of rule IDs, got {suppress!r}")
    fail_on = payload.get("fail_on", "error")
    if fail_on not in ("error", "warning"):
        raise OpError(f"fail_on must be 'error' or 'warning', got {fail_on!r}")
    concurrency = bool(payload.get("concurrency", False))
    scheduler = str(payload.get("scheduler", "mh"))
    report = lint_project(
        project,
        suppress=[str(r) for r in suppress],
        concurrency=concurrency,
        scheduler=scheduler,
    )
    failed = report.error_count > 0 or (
        fail_on == "warning" and report.warning_count > 0
    )
    doc = to_json(report)
    doc["type"] = "banger-lint"
    doc["ok"] = not failed
    return doc


def _base_schedule(payload: dict[str, Any]):
    """The previous schedule for an incremental request, if any."""
    doc = payload.get("base_schedule")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise OpError(
            f"base_schedule must be a saved schedule document, got {doc!r}"
        )
    try:
        return schedule_from_dict(doc)
    except ReproError as exc:
        raise OpError(f"malformed base_schedule: {exc}") from None


def op_schedule(payload: dict[str, Any]) -> dict[str, Any]:
    from repro.sched.metrics import report as schedule_report

    project = _project_from_payload(payload)
    req = _request(payload)
    base = _base_schedule(payload)
    incremental = None
    if base is not None:
        # Edit-loop path: re-time against the client's previous schedule
        # instead of scheduling from scratch.  The base document is part of
        # the coalesce key, so identical edits still share one computation.
        try:
            result = incremental_reschedule(base, project.flat())
        except ReproError as exc:
            raise OpError(f"incremental reschedule failed: {exc}") from None
        schedule = result.schedule
        incremental = {
            "n_tasks": result.n_tasks,
            "n_dirty": result.n_dirty,
            "n_reused": result.n_reused,
            "reused_fraction": result.reused_fraction,
            "unchanged": result.unchanged,
            "fallback": result.fallback,
        }
    else:
        schedule = project.schedule(req.scheduler)
    doc: dict[str, Any] = {
        "type": "banger-schedule",
        "project": project.name,
        "scheduler": schedule.scheduler,
        "n_procs": schedule.machine.n_procs,
        "makespan": schedule.makespan(),
        "report": asdict(schedule_report(schedule)),
        "schedule": schedule_to_dict(schedule),
    }
    if incremental is not None:
        doc["incremental"] = incremental
    if payload.get("gantt"):
        doc["gantt"] = render_gantt(schedule)
    return doc


def op_speedup(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    report = project.speedup(_request(payload))
    doc = asdict(report)
    doc["type"] = "banger-speedup"
    doc["points"] = [asdict(p) for p in report.points]
    return doc


def op_sweep(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    raw = payload.get("schedulers", ["mh"])
    if not isinstance(raw, list) or not raw:
        raise OpError(f"schedulers must be a non-empty list of names, got {raw!r}")
    reports = {}
    for name in raw:
        req = _request({**payload, "scheduler": name})
        rep = project.speedup(req)
        reports[str(name)] = {
            "family": rep.family,
            "serial_time": rep.serial_time,
            "max_parallelism": rep.max_parallelism,
            "points": [asdict(p) for p in rep.points],
        }
    return {
        "type": "banger-sweep",
        "project": project.name,
        "schedulers": reports,
    }


def _scenario(payload: dict[str, Any]):
    """The fault scenario for a dynamic simulate request, if any."""
    doc = payload.get("scenario")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise OpError(f"scenario must be a fault-scenario document, got {doc!r}")
    from repro.machine.scenario import FaultScenario

    try:
        return FaultScenario.from_dict(doc)
    except ReproError as exc:
        raise OpError(f"malformed scenario: {exc}") from None


def op_simulate(payload: dict[str, Any]) -> dict[str, Any]:
    project = _project_from_payload(payload)
    req = _request(payload)
    contention = bool(payload.get("contention", False))
    scenario = _scenario(payload)
    if scenario is None and payload.get("reactive"):
        raise OpError("reactive re-maps around a fault scenario; "
                      "the payload carries no 'scenario'")
    schedule = project.schedule(req.scheduler)
    doc: dict[str, Any] = {
        "type": "banger-simulate",
        "project": project.name,
        "scheduler": schedule.scheduler,
        "contention": contention,
        "static_makespan": schedule.makespan(),
    }
    if scenario is None:
        trace = simulate(schedule, contention=contention)
        doc["simulated_makespan"] = trace.makespan()
        return doc

    try:
        scenario.validate_for(schedule.machine)
    except ReproError as exc:
        raise OpError(f"scenario does not fit the project machine: {exc}") from None
    doc["scenario"] = scenario.name or "scenario"
    if payload.get("reactive"):
        from repro.sched.reactive import reactive_execute

        threshold = _number(payload, "threshold", float, 2.0)
        result = reactive_execute(
            schedule, scenario, threshold=threshold, contention=contention
        )
        trace = result.trace
        doc["reactive"] = {
            "threshold": threshold,
            "rounds": result.n_rounds,
            "remapped_tasks": result.total_remaps,
            "passive_makespan": result.traces[0].makespan(),
        }
    else:
        from repro.sim.dynamic import simulate_dynamic

        trace = simulate_dynamic(schedule, scenario, contention=contention)
    doc["simulated_makespan"] = trace.makespan()
    doc["stranded"] = sorted(trace.stranded)
    doc["killed"] = sorted(trace.killed)
    doc["lost_messages"] = len(trace.lost)
    return doc


def op_codegen(payload: dict[str, Any]) -> dict[str, Any]:
    from repro.codegen.backends import get_backend
    from repro.errors import CodegenError
    from repro.graph.serialize import _encode_value

    project = _project_from_payload(payload)
    target = payload.get("target", "threads")
    if not isinstance(target, str):
        raise OpError(f"target must be a backend name string, got {target!r}")
    req = _request(payload)
    try:
        backend = get_backend(target)
        program = project.lower(req.scheduler)
    except CodegenError as exc:
        raise OpError(str(exc)) from None
    doc: dict[str, Any] = {
        "type": "banger-codegen",
        "project": project.name,
        "target": target,
        "scheduler": program.scheduler,
        "n_procs": program.n_procs,
        "makespan": program.makespan,
        "ir_hash": program.content_hash(),
    }
    if backend.emits_source:
        doc["source"] = backend.emit(program)
    if payload.get("run"):
        if not backend.runnable:
            raise OpError(f"target {target!r} cannot run in-process; "
                          f"request its source instead")
        try:
            outputs = backend.run(program)
        except CodegenError as exc:
            raise OpError(str(exc)) from None
        doc["outputs"] = {k: _encode_value(v) for k, v in outputs.items()}
    return doc


def op_conform(payload: dict[str, Any]) -> dict[str, Any]:
    from repro.conformance import run

    oracles = payload.get("oracles") or None
    if oracles is not None and not isinstance(oracles, list):
        raise OpError(f"oracles must be a list of oracle names, got {oracles!r}")
    budget = payload.get("budget")
    report = run(
        seed=_number(payload, "seed", int, 0),
        runs=_number(payload, "runs", int, 50),
        oracles=[str(o) for o in oracles] if oracles else None,
        time_budget=None if budget is None else _number(payload, "budget", float, 0),
    )
    doc = report.as_dict()
    doc["type"] = "banger-conform"
    return doc


# --------------------------------------------------------------------- #
# debug ops (refused unless the daemon runs with --debug)
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

    Two requests with equal keys are guaranteed the same answer, so the
    daemon runs one and shares the bytes.  Project ops are keyed by the
    project's name (replies quote it), the flattened graph's content hash,
    the machine's content hash, the resolved scheduler's cache key, and
    every other payload field — whatever option an op reads is in the key
    without a per-op table to keep in step — so a reordered-but-identical
    JSON body maps to the same key.
    """
    if op not in OPS:
        raise OpError(f"unknown operation {op!r}")
    if op in PROJECT_OPS:
        project = _project_from_payload(payload)
        fps = project.fingerprints()
        if op in ("schedule", "speedup", "simulate", "codegen"):
            sched_key = scheduler_cache_key(
                resolve_scheduler(_scheduler_name(payload))
            )
        else:
            sched_key = ""
        options = {f: v for f, v in payload.items() if f != "project"}
        return fingerprint(
            [op, project.name, fps["graph"], fps["machine"], sched_key, options]
        )
    return fingerprint([op, payload])


def _work_counters() -> dict[str, int | float]:
    """The ten process-wide work counters :func:`execute` reports deltas of."""
    stats = shared_service().stats()
    return {
        "sched_runs": stats.misses,
        "service_hits": stats.hits,
        **kernel_counters(),
        "reactive_remaps": reactive_counters()["reactive_remaps"],
        "stranded_tasks": dynamic_counters()["stranded_tasks"],
    }


def execute(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Run one op with counter accounting.

    Returns ``{"result": <response doc>, "counters": <work deltas>}`` —
    the daemon sends ``result`` to the client and folds ``counters`` into
    ``/metrics`` so scheduler runs are observable no matter which process
    performed them.
    """
    fn = OPS.get(op)
    if fn is None:
        raise OpError(f"unknown operation {op!r}")
    before = _work_counters()
    result = fn(payload)
    after = _work_counters()
    return {
        "result": result,
        "counters": {name: after[name] - before[name] for name in after},
    }
