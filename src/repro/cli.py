"""Command-line interface: drive a saved Banger project from the shell.

Projects are the JSON documents written by
:meth:`repro.env.project.BangerProject.save`.  Usage::

    python -m repro.cli feedback  project.json
    python -m repro.cli lint      project.json --format sarif
    python -m repro.cli outline   project.json
    python -m repro.cli schedule  project.json --scheduler mh --gantt
    python -m repro.cli edit      project.json --move t3 2 --swap a b
    python -m repro.cli speedup   project.json --procs 1,2,4,8
    python -m repro.cli sweep     project.json --scheduler mh,hlfet --stats
    python -m repro.cli simulate  project.json --contention
    python -m repro.cli run       project.json [--parallel]
    python -m repro.cli codegen   project.json --target threads -o prog.py
    python -m repro.cli codegen   project.json --target inproc --run
    python -m repro.cli topology  --family hypercube --procs 8
    python -m repro.cli projects  put alice/mydesign project.json
    python -m repro.cli projects  log alice/mydesign
    python -m repro.cli demo

Wherever a command takes a project file, a store reference works too:
``corpus://<name>[@v]`` draws from the built-in scenario corpus and
``store://<tenant>/<name>[@v]`` from the local project store
(``--store``/``BANGER_STORE_DIR``, default ``.banger-store``) — so
``banger sweep corpus://family_butterfly`` needs no JSON file at all.

Exit codes are uniform across every subcommand:

* ``0`` — success;
* ``1`` — the command ran but found problems (lint errors, failed
  feedback, conformance failures, a scheduling error);
* ``2`` — usage or missing input (bad flag values, nonexistent or
  non-project files, malformed JSON).

Every failure prints a single actionable message — the command-line
flavour of instant feedback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys

from repro import __version__
from repro.env.project import BangerProject
from repro.errors import ReproError
from repro.machine.topologies import build_topology
from repro.sched import SCHEDULERS, report
from repro.sched.metrics import ScheduleReport
from repro.sim import simulate
from repro.viz import render_gantt, render_trace_gantt, render_topology
from repro.viz.export import schedule_to_chrome_trace, schedule_to_csv


#: Uniform exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ReproError):
    """Bad flag values or unusable input files — exits with status 2."""


def _store_root(explicit: str | None = None) -> str:
    """The local store directory: ``--store``, else the environment, else
    ``.banger-store`` in the working directory."""
    return explicit or os.environ.get("BANGER_STORE_DIR") or ".banger-store"


def _parse_ref(text: str) -> tuple[str, str, int | None]:
    """``tenant/name[@version]`` -> its parts."""
    version: int | None = None
    if "@" in text:
        text, _, vtext = text.rpartition("@")
        try:
            version = int(vtext)
        except ValueError:
            raise UsageError(
                f"bad version {vtext!r} in project ref; expected an integer"
            ) from None
    if "/" not in text:
        raise UsageError(
            f"bad project ref {text!r}; expected tenant/name[@version]"
        )
    tenant, name = text.split("/", 1)
    return tenant, name, version


def _resolve_store_uri(path: str) -> dict | None:
    """A project document for ``corpus://`` / ``store://`` URIs, else None."""
    if path.startswith("corpus://"):
        from repro.store.corpus import CORPUS_TENANT, default_corpus

        ref = path[len("corpus://"):]
        name, version = ref, None
        if "@" in ref:
            _, name, version = _parse_ref(f"{CORPUS_TENANT}/{ref}")
        return default_corpus().get(CORPUS_TENANT, name, version)
    if path.startswith("store://"):
        from repro.store import ProjectRepository

        tenant, name, version = _parse_ref(path[len("store://"):])
        return ProjectRepository(_store_root()).get(tenant, name, version)
    return None


@contextlib.contextmanager
def _loading(what: str):
    """Any library error raised while reading an input — an unknown store
    ref, a file that is not what the flag needs — is a usage error (exit 2),
    not a finding about the design."""
    try:
        yield
    except ReproError as exc:
        raise UsageError(f"cannot load {what}: {exc}") from None


def _load(path: str) -> BangerProject:
    with _loading("Banger project"):
        doc = _resolve_store_uri(path)
        if doc is not None:
            return BangerProject.from_dict(doc)
        return BangerProject.load(path)


def _parse_procs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad processor list {text!r}; expected e.g. 1,2,4,8") from None


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #
def cmd_feedback(args: argparse.Namespace) -> int:
    project = _load(args.project)
    fb = project.feedback()
    print(fb.render())
    return 0 if fb.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_project, render_json, render_sarif, render_text

    project = _load(args.project)
    suppress = [r.strip() for r in (args.suppress or "").split(",") if r.strip()]
    report = lint_project(
        project,
        suppress=suppress,
        concurrency=getattr(args, "concurrency", False),
        scheduler=getattr(args, "scheduler", "mh"),
    )
    if getattr(args, "baseline", None):
        from repro.lint import apply_baseline, load_baseline

        with _loading("SARIF baseline"):
            baseline = load_baseline(args.baseline)
        report = apply_baseline(report, baseline)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report, artifact=args.project))
    else:
        print(render_text(report))
    failed = report.error_count > 0 or (
        args.fail_on == "warning" and report.warning_count > 0
    )
    return 1 if failed else 0


def cmd_outline(args: argparse.Namespace) -> int:
    print(_load(args.project).outline())
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.env.advisor import render_advice

    project = _load(args.project)
    print(render_advice(project.advise()))
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    project = _load(args.project)
    schedule = project.schedule(args.scheduler)
    print(ScheduleReport.header())
    print(report(schedule).as_row())
    if args.gantt:
        print()
        print(render_gantt(schedule, show_messages=args.messages,
                           highlight_critical=True))
    if args.why:
        from repro.sched import render_explanations

        print()
        print(render_explanations(schedule))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(schedule_to_csv(schedule))
        print(f"\nwrote {args.csv}")
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            fh.write(schedule_to_chrome_trace(schedule))
        print(f"wrote {args.chrome_trace} (open in chrome://tracing)")
    return 0


def cmd_edit(args: argparse.Namespace) -> int:
    from repro.sched import move_task, swap_tasks

    project = _load(args.project)
    moves = args.move or []
    swaps = args.swap or []
    if not moves and not swaps:
        raise UsageError("nothing to edit; pass --move TASK PROC and/or --swap A B")
    schedule = project.schedule(args.scheduler)
    makespan_before = schedule.makespan()
    edits: list[dict] = []
    lines: list[str] = []
    for task, proc_text in moves:
        try:
            proc = int(proc_text)
        except ValueError:
            raise UsageError(
                f"--move needs an integer processor, got {proc_text!r}"
            ) from None
        result = move_task(schedule, task, proc)
        schedule = result.schedule
        lines.append(f"move {task} -> P{proc}: {result.render()}")
        edits.append({
            "kind": "move", "task": task, "proc": proc,
            "makespan_before": result.makespan_before,
            "makespan_after": result.makespan_after,
            "delta": result.delta,
        })
    for a, b in swaps:
        result = swap_tasks(schedule, a, b)
        schedule = result.schedule
        lines.append(f"swap {a} <-> {b}: {result.render()}")
        edits.append({
            "kind": "swap", "tasks": [a, b],
            "makespan_before": result.makespan_before,
            "makespan_after": result.makespan_after,
            "delta": result.delta,
        })
    makespan_after = schedule.makespan()
    if args.json:
        print(json.dumps({
            "type": "banger-edit",
            "project": project.name,
            "scheduler": args.scheduler,
            "makespan_before": makespan_before,
            "makespan_after": makespan_after,
            "delta": makespan_after - makespan_before,
            "edits": edits,
        }, indent=2))
    else:
        for line in lines:
            print(line)
        delta = makespan_after - makespan_before
        verdict = ("worse" if delta > 1e-9
                   else ("better" if delta < -1e-9 else "same"))
        print(f"total: makespan {makespan_before:.3f} -> {makespan_after:.3f} "
              f"({verdict}, {delta:+.3f})")
        if args.gantt:
            print()
            print(render_gantt(schedule, highlight_critical=True))
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    project = _load(args.project)
    report_ = project.speedup(_parse_procs(args.procs), scheduler=args.scheduler,
                              family=args.family)
    from repro.viz import render_speedup_chart

    print(render_speedup_chart(report_))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sched import ScheduleRequest

    project = _load(args.project)
    procs = _parse_procs(args.procs)
    schedulers = [s.strip() for s in args.scheduler.split(",") if s.strip()]
    if not schedulers:
        raise UsageError("no scheduler given; expected e.g. --scheduler mh,hlfet")
    reports = {}
    for name in schedulers:
        request = ScheduleRequest(
            scheduler=name,
            proc_counts=procs,
            family=args.family,
        )
        reports[name] = project.speedup(request)
        print(reports[name].table())
        if args.gantt:
            print()
            print(project.gantt_series(request))
        print()
    stats = project.service.stats()
    if args.stats:
        print(stats.render())
    if args.json:
        doc = {
            "type": "banger-sweep",
            "project": project.name,
            "proc_counts": list(procs),
            "schedulers": {
                name: {
                    "family": rep.family,
                    "serial_time": rep.serial_time,
                    "max_parallelism": rep.max_parallelism,
                    "points": [
                        {
                            "n_procs": p.n_procs,
                            "makespan": p.makespan,
                            "speedup": p.speedup,
                            "efficiency": p.efficiency,
                        }
                        for p in rep.points
                    ],
                }
                for name, rep in reports.items()
            },
            "stats": stats.as_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.reactive and not args.scenario:
        raise UsageError("--reactive re-maps around a fault scenario; "
                         "pass one with --scenario")
    project = _load(args.project)
    schedule = project.schedule(args.scheduler)
    scenario = None
    if args.scenario:
        from repro.machine.scenario import FaultScenario

        with open(args.scenario, encoding="utf-8") as fh, _loading("fault scenario"):
            scenario = FaultScenario.from_dict(json.load(fh))
            scenario.validate_for(schedule.machine)
    if scenario is None:
        trace = simulate(schedule, contention=args.contention)
        print(render_trace_gantt(trace))
        print()
        print(f"static makespan    {schedule.makespan():.3f}")
        print(f"simulated makespan {trace.makespan():.3f}"
              + (" (with link contention)" if args.contention else ""))
        return 0

    label = scenario.name or "scenario"
    if args.reactive:
        from repro.sched.reactive import reactive_execute

        result = reactive_execute(
            schedule, scenario,
            threshold=args.threshold, contention=args.contention,
        )
        trace = result.trace
        passive = result.traces[0]
        print(render_trace_gantt(trace))
        print()
        print(f"static makespan    {schedule.makespan():.3f}")
        print(f"passive makespan   {passive.makespan():.3f} under {label!r} "
              f"({len(passive.stranded)} stranded)")
        print(f"reactive makespan  {trace.makespan():.3f} "
              f"({result.n_rounds} round(s), {result.total_remaps} task(s) "
              f"re-mapped, {len(trace.stranded)} stranded)")
    else:
        from repro.sim.dynamic import simulate_dynamic

        trace = simulate_dynamic(schedule, scenario, contention=args.contention)
        print(render_trace_gantt(trace))
        print()
        print(f"static makespan    {schedule.makespan():.3f}")
        print(f"dynamic makespan   {trace.makespan():.3f} under {label!r}")
    if trace.killed:
        print(f"killed tasks       {', '.join(sorted(trace.killed))}")
    if trace.lost:
        print(f"lost messages      {len(trace.lost)}")
    if trace.stranded:
        print(f"stranded tasks     {', '.join(sorted(trace.stranded))}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    project = _load(args.project)
    if args.parallel:
        result = project.run_parallel(scheduler=args.scheduler)
        print(f"ran on processors {result.procs_used} "
              f"with {result.messages_sent} message(s)")
        outputs = result.outputs
    else:
        seq = project.run()
        for line in seq.displayed():
            print(line)
        outputs = seq.outputs
    for name in sorted(outputs):
        print(f"{name} = {outputs[name]}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen.api import generate as generate_source, run as run_target

    if args.list:
        from repro.codegen import list_backends

        for entry in list_backends():
            abilities = []
            if entry["emits_source"]:
                abilities.append("emit")
            if entry["runnable"]:
                abilities.append("run")
            print(f"{entry['name']:<8} [{','.join(abilities)}] {entry['description']}")
        return 0
    if not args.project:
        raise UsageError("codegen needs a project file (or --list)")
    project = _load(args.project)
    if args.run:
        outputs = run_target(project, target=args.target, scheduler=args.scheduler)
        for name in sorted(outputs):
            print(f"{name} = {outputs[name]}")
        return 0
    source = generate_source(project, target=args.target, scheduler=args.scheduler)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import corpus_paths, load_entry, replay_entry, run

    oracles = [o.strip() for o in (args.oracle or "").split(",") if o.strip()]

    if args.replay:
        if not pathlib.Path(args.replay).is_dir():
            print(f"error: no such corpus directory: {args.replay}", file=sys.stderr)
            return 2
        failures: list[str] = []
        paths = corpus_paths(args.replay)
        for path in paths:
            for oracle, problem in replay_entry(load_entry(path)):
                failures.append(f"{path.name}: [{oracle}] {problem}")
        if args.format == "json":
            print(json.dumps({
                "type": "banger-conform-replay",
                "corpus": str(args.replay),
                "cases": len(paths),
                "ok": not failures,
                "failures": failures,
            }, indent=2))
        else:
            print(f"replayed {len(paths)} corpus case(s) from {args.replay}")
            for line in failures:
                print(f"FAIL {line}")
            print("ok" if not failures else f"FAILED ({len(failures)} problem(s))")
        return 1 if failures else 0

    report = run(
        seed=args.seed,
        runs=args.runs,
        oracles=oracles or None,
        corpus_dir=args.corpus,
        time_budget=args.budget,
    )
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import BangerDaemon, run_daemon

    if args.workers is not None and args.workers < 0:
        raise UsageError(f"--workers must be >= 0, got {args.workers}")
    if args.queue_limit < 1:
        raise UsageError(f"--queue-limit must be >= 1, got {args.queue_limit}")
    if args.timeout <= 0:
        raise UsageError(f"--timeout must be > 0, got {args.timeout}")

    access_log = None
    if not args.no_access_log:
        if args.access_log:
            log_fh = open(args.access_log, "a", encoding="utf-8")

            def access_log(record):  # noqa: F811 - the chosen sink
                print(json.dumps(record, sort_keys=True), file=log_fh, flush=True)
        else:
            from repro.server.app import _default_access_log as access_log

    quota = None
    if args.quota_projects or args.quota_versions or args.quota_bytes:
        from repro.store import TenantQuota

        quota = TenantQuota(
            max_projects=args.quota_projects,
            max_versions_per_project=args.quota_versions,
            max_bytes=args.quota_bytes,
        )

    daemon = BangerDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        cache_entries=args.cache_entries,
        debug=args.debug,
        access_log=access_log,
        store_dir=args.store or os.environ.get("BANGER_STORE_DIR") or None,
        tenant_quota=quota,
        seed_corpus=not args.no_seed_corpus,
    )

    def ready(d: BangerDaemon) -> None:
        # One machine-readable line so wrappers can discover --port 0.
        print(json.dumps({
            "event": "ready",
            "host": d.host,
            "port": d.port,
            "workers": d.workers,
            "pid": __import__("os").getpid(),
        }, sort_keys=True), flush=True)

    asyncio.run(run_daemon(daemon, ready=ready))
    return 0


def cmd_projects(args: argparse.Namespace) -> int:
    from repro.errors import QuotaExceeded, StoreError
    from repro.store import ProjectRepository

    repo = ProjectRepository(_store_root(args.store))
    try:
        return _run_projects_action(repo, args)
    except QuotaExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _run_projects_action(repo, args: argparse.Namespace) -> int:
    action = args.action
    if action == "list":
        if args.tenant:
            names = repo.refs.projects(args.tenant)
            if not names and args.tenant not in repo.refs.tenants():
                print(f"error: no tenant {args.tenant!r} in the store",
                      file=sys.stderr)
                return EXIT_FAILURE
            for name in names:
                head = repo.refs.head(args.tenant, name)
                print(f"{args.tenant}/{name}@{head['v']}  "
                      f"{head['manifest'][:12]}  {head.get('message', '')}")
        else:
            for tenant in repo.refs.tenants():
                print(f"{tenant}  ({len(repo.refs.projects(tenant))} project(s))")
        return EXIT_OK
    if action == "seed":
        from repro.store.corpus import seed_corpus

        info = seed_corpus(repo)
        print(f"seeded {len(info)} corpus project(s) into {repo.blobs.total_bytes()} "
              f"stored byte(s)")
        return EXIT_OK
    if action == "put":
        tenant, name, _ = _parse_ref(args.ref)
        with open(args.project, encoding="utf-8") as fh:
            doc = json.load(fh)
        scenario = None
        if args.scenario:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = json.load(fh)
        info = repo.put(tenant, name, doc, message=args.message,
                        scenario=scenario)
        print(f"{tenant}/{name}@{info['version']}  {info['manifest'][:12]}  "
              f"(project {info['project'][:12]})")
        return EXIT_OK
    if action == "get":
        tenant, name, version = _parse_ref(args.ref)
        doc = repo.get(tenant, name, version)
        text = json.dumps(doc, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return EXIT_OK
    if action == "log":
        tenant, name, _ = _parse_ref(args.ref)
        for entry in repo.log(tenant, name):
            project = (entry.get("project") or "?")[:12]
            print(f"v{entry['v']}  manifest {entry['manifest'][:12]}  "
                  f"project {project}  {entry.get('message', '')}")
        return EXIT_OK
    if action == "diff":
        tenant, name, version_a = _parse_ref(args.ref)
        to_tenant, to_name, version_b = _parse_ref(args.against)
        delta = repo.diff(tenant, name, version_a, version_b,
                          to_tenant=to_tenant, to_name=to_name)
        if args.json:
            print(json.dumps(delta, indent=2, sort_keys=True))
        elif delta["identical"]:
            print("identical (same manifest)")
        else:
            for key, comp in sorted(delta["components"].items()):
                mark = "=" if comp["equal"] else "≠"
                print(f"{key:<9} {mark}")
            for verb in ("added", "removed", "changed"):
                for path in delta["nodes"][verb]:
                    print(f"node {verb:<8} {path}")
            for verb in ("added", "removed"):
                for arc in delta["arcs"][verb]:
                    print(f"arc  {verb:<8} {arc}")
        return EXIT_OK if delta["identical"] or not args.fail_on_diff else EXIT_FAILURE
    if action == "fork":
        tenant, name, version = _parse_ref(args.ref)
        to_tenant, to_name, _ = _parse_ref(args.to)
        info = repo.fork(tenant, name, to_tenant, to_name, version=version,
                         message=args.message)
        print(f"{to_tenant}/{to_name}@{info['version']}  "
              f"{info['manifest'][:12]}  (zero-copy)")
        return EXIT_OK
    if action == "gc":
        result = repo.gc(max_bytes=args.max_bytes)
        print(f"deleted {result['deleted']} blob(s); {result['live']} live, "
              f"{result['stored_bytes']} byte(s) on disk")
        return EXIT_OK
    raise UsageError(f"unknown projects action {action!r}")


def cmd_topology(args: argparse.Namespace) -> int:
    topo = build_topology(args.family, args.procs)
    print(render_topology(topo))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Build the Figure 1 project in a temp file and show the pipeline."""
    import numpy as np

    from repro.apps import lu3_design
    from repro.machine import MachineParams

    project = BangerProject("figure1").set_design(lu3_design())
    project.set_machine("hypercube", 4,
                        MachineParams(msg_startup=0.2, transmission_rate=20.0))
    print(project.feedback().render())
    print()
    print(project.gantt("mh"))
    print()
    A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
    b = np.array([1.0, 2.0, 3.0])
    x = project.run({"A": A, "b": b}).outputs["x"]
    print(f"solve([[4,3,2],[2,4,1],[1,2,3]], [1,2,3]) = {x}")
    if args.save:
        project.save(args.save)
        print(f"saved project to {args.save}")
    return 0


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banger", description="Banger parallel programming environment (CLI)",
        epilog="Diagnostics carry stable rule IDs (PITS0xx, DF1xx, SCH2xx, "
               "XL3xx, MF4xx); see docs/diagnostics.md for the catalogue "
               "with triggering examples and fix hints.",
    )
    parser.add_argument("--version", action="version",
                        version=f"banger {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_project(p: argparse.ArgumentParser) -> None:
        p.add_argument("project",
                       help="path to a saved Banger project (.json), or a "
                            "store://tenant/name[@v] / corpus://<name> ref")

    def add_scheduler(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheduler", default="mh", choices=sorted(SCHEDULERS))

    p = sub.add_parser("feedback", help="validate everything; exit 1 on errors")
    add_project(p)
    p.set_defaults(fn=cmd_feedback)

    p = sub.add_parser(
        "lint",
        help="static analysis with stable rule IDs (text/json/sarif)",
        epilog="Rule catalogue: docs/diagnostics.md",
    )
    add_project(p)
    p.add_argument("--format", default="text", choices=("text", "json", "sarif"),
                   help="output format (sarif is GitHub-annotatable)")
    p.add_argument("--fail-on", default="error", choices=("error", "warning"),
                   help="lowest severity that makes the exit status nonzero")
    p.add_argument("--suppress", default="",
                   help="comma-separated rule IDs to hide, e.g. XL303,MF401")
    p.add_argument("--baseline", default=None, metavar="REPORT.SARIF",
                   help="suppress findings recorded in a previous SARIF "
                        "report; fail only on new ones")
    p.add_argument("--concurrency", action="store_true",
                   help="also schedule the project and verify the generated "
                        "communication plan (CG5xx rules)")
    p.add_argument("--scheduler", default="mh",
                   help="scheduler used for --concurrency (default: mh)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("outline", help="print the design outline")
    add_project(p)
    p.set_defaults(fn=cmd_outline)

    p = sub.add_parser("advise", help="measured improvement suggestions")
    add_project(p)
    p.set_defaults(fn=cmd_advise)

    p = sub.add_parser("schedule", help="schedule and summarise")
    add_project(p)
    add_scheduler(p)
    p.add_argument("--gantt", action="store_true", help="print the Gantt chart")
    p.add_argument("--messages", action="store_true", help="list planned messages")
    p.add_argument("--why", action="store_true",
                   help="explain each placement's binding constraint")
    p.add_argument("--csv", help="write placements as CSV")
    p.add_argument("--chrome-trace", help="write Chrome tracing JSON")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser(
        "edit",
        help="what-if schedule edits: move/swap tasks, see the makespan respond",
        epilog="Edits apply in order (moves first, then swaps), each re-timed "
               "with the shared fixed-assignment pass so the result is always "
               "feasible.  A worsening edit still exits 0 — the delta is the "
               "answer; unknown tasks or processors exit 1.",
    )
    add_project(p)
    add_scheduler(p)
    p.add_argument("--move", nargs=2, action="append", metavar=("TASK", "PROC"),
                   help="reassign TASK to processor PROC (repeatable)")
    p.add_argument("--swap", nargs=2, action="append", metavar=("A", "B"),
                   help="exchange the processors of tasks A and B (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable result instead of text")
    p.add_argument("--gantt", action="store_true",
                   help="print the edited schedule's Gantt chart (text mode)")
    p.set_defaults(fn=cmd_edit)

    p = sub.add_parser("speedup", help="speedup prediction sweep")
    add_project(p)
    add_scheduler(p)
    p.add_argument("--procs", default="1,2,4,8")
    p.add_argument("--family", default=None,
                   help="topology family (default: the project machine's family)")
    p.set_defaults(fn=cmd_speedup)

    p = sub.add_parser(
        "sweep",
        help="cached scheduling sweeps across machine sizes",
        epilog="Results are memoized by content (graph x machine x scheduler); "
               "rerunning an unchanged sweep is served from cache.  Misses run "
               "in order, in this process.",
    )
    add_project(p)
    p.add_argument("--procs", default="1,2,4,8")
    p.add_argument("--scheduler", default="mh",
                   help="comma-separated heuristic names (see `banger schedule`)")
    p.add_argument("--family", default=None,
                   help="topology family (default: the project machine's family)")
    p.add_argument("--stats", action="store_true",
                   help="print cache hit/miss/eviction and sweep counters")
    p.add_argument("--gantt", action="store_true",
                   help="also print the stacked Gantt charts per size")
    p.add_argument("--json", help="write the sweep results + stats as JSON")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "simulate",
        help="discrete-event replay of the schedule",
        epilog="With --scenario the replay injects the fault scenario "
               "(stragglers, processor/link failures, duration noise); add "
               "--reactive to re-map not-yet-started tasks around the faults "
               "as they are observed.",
    )
    add_project(p)
    add_scheduler(p)
    p.add_argument("--contention", action="store_true",
                   help="model one-message-at-a-time links")
    p.add_argument("--scenario", default=None,
                   help="fault-scenario JSON file to inject during the replay")
    p.add_argument("--reactive", action="store_true",
                   help="reschedule unstarted tasks online as faults appear "
                        "(requires --scenario)")
    p.add_argument("--threshold", type=float, default=2.0,
                   help="observed/expected slowdown ratio that flags a "
                        "straggler processor (default: 2.0)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("run", help="execute the design")
    add_project(p)
    add_scheduler(p)
    p.add_argument("--parallel", action="store_true",
                   help="threaded execution of the schedule (default: sequential)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "codegen",
        help="generate (or run) the parallel program on a backend target",
    )
    p.add_argument(
        "project", nargs="?",
        help="path to a saved Banger project (.json); omit with --list",
    )
    add_scheduler(p)
    p.add_argument(
        "--target", choices=("threads", "inproc", "mpi", "c"), default="threads",
        help="codegen backend (default: threads)",
    )
    p.add_argument(
        "--run", action="store_true",
        help="execute on the target backend and print the design outputs",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list registered backends and exit",
    )
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser(
        "conform",
        help="differential fuzzing: cross-layer oracles on seeded cases",
        epilog="Runs are deterministic per (seed, runs, oracles): the printed "
               "digest must be identical across repeats.  Failures are shrunk "
               "to minimal witnesses and, with --corpus, written as replayable "
               "JSON cases.  Oracle catalogue: docs/conformance.md",
    )
    p.add_argument("--seed", type=int, default=0, help="fuzzer seed (default 0)")
    p.add_argument("--runs", type=int, default=100,
                   help="number of generated cases (default 100)")
    p.add_argument("--oracle", default="",
                   help="comma-separated oracle names (default: all registered)")
    p.add_argument("--corpus", default=None,
                   help="directory to write shrunk failing cases into")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock cap in seconds (truncation is reported)")
    p.add_argument("--replay", default=None, metavar="CORPUS_DIR",
                   help="replay a stored corpus instead of fuzzing")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(fn=cmd_conform)

    p = sub.add_parser(
        "serve",
        help="run the Banger pipeline as a JSON-over-HTTP daemon",
        epilog="Endpoints: POST /lint /schedule /sweep /simulate /speedup "
               "/conform, GET /healthz /metrics.  Identical in-flight "
               "requests are coalesced onto one computation; see "
               "docs/server.md for schemas and failure semantics.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8045,
                   help="TCP port (0 picks a free one; read the ready line)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: min(4, cpus); "
                        "0 runs ops inline on threads)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="max in-flight compute requests before 503 (default 64)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request compute budget in seconds (default 30)")
    p.add_argument("--cache-entries", type=int, default=512,
                   help="response LRU size (default 512)")
    p.add_argument("--debug", action="store_true",
                   help="expose /debug/* fault-injection endpoints")
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append JSON access-log lines here (default: stderr)")
    p.add_argument("--no-access-log", action="store_true",
                   help="disable the access log entirely")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="project-store directory served under /projects "
                        "(default: BANGER_STORE_DIR or in-memory)")
    p.add_argument("--quota-projects", type=int, default=0,
                   help="max projects per tenant (0 = unlimited)")
    p.add_argument("--quota-versions", type=int, default=0,
                   help="max versions per project (0 = unlimited)")
    p.add_argument("--quota-bytes", type=int, default=0,
                   help="max logical bytes written per tenant (0 = unlimited)")
    p.add_argument("--no-seed-corpus", action="store_true",
                   help="skip seeding the built-in scenario corpus at startup")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "projects",
        help="the local content-addressed project store",
        epilog="Refs are tenant/name[@version]; the store lives in --store "
               "(or BANGER_STORE_DIR, default .banger-store).  Any other "
               "subcommand can read from it via store://tenant/name[@v] and "
               "corpus://<name> project arguments.  See docs/projects.md.",
    )
    p.add_argument("--store", default=None, metavar="DIR",
                   help="store directory (default: BANGER_STORE_DIR "
                        "or .banger-store)")
    actions = p.add_subparsers(dest="action", required=True)

    a = actions.add_parser("list", help="tenants, or one tenant's projects")
    a.add_argument("tenant", nargs="?", default=None)

    a = actions.add_parser("put", help="store a project file as a new version")
    a.add_argument("ref", help="tenant/name")
    a.add_argument("project", help="path to a saved Banger project (.json)")
    a.add_argument("-m", "--message", default="", help="version message")
    a.add_argument("--scenario", default=None,
                   help="fault-scenario JSON to attach to this version")

    a = actions.add_parser("get", help="print (or write) a stored project")
    a.add_argument("ref", help="tenant/name[@version]")
    a.add_argument("-o", "--output", default=None,
                   help="write the project JSON here instead of stdout")

    a = actions.add_parser("log", help="version history of a project")
    a.add_argument("ref", help="tenant/name")

    a = actions.add_parser("diff", help="content delta between two refs")
    a.add_argument("ref", help="tenant/name[@version]")
    a.add_argument("against", help="tenant/name[@version] to compare with")
    a.add_argument("--json", action="store_true",
                   help="machine-readable delta instead of text")
    a.add_argument("--fail-on-diff", action="store_true",
                   help="exit 1 when the refs differ (for scripts)")

    a = actions.add_parser("fork", help="zero-copy branch of a version")
    a.add_argument("ref", help="tenant/name[@version] to fork from")
    a.add_argument("to", help="tenant/name of the new project")
    a.add_argument("-m", "--message", default="", help="version message")

    a = actions.add_parser("gc", help="drop unreferenced blobs")
    a.add_argument("--max-bytes", type=int, default=None,
                   help="if still over this size, also trim non-head "
                        "version history oldest-first (heads always survive)")

    a = actions.add_parser("seed", help="(re)seed the built-in corpus tenant")

    p.set_defaults(fn=cmd_projects)

    p = sub.add_parser("topology", help="draw a topology family")
    p.add_argument("--family", default="hypercube")
    p.add_argument("--procs", type=int, default=8)
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("demo", help="the Figure 1 pipeline, end to end")
    p.add_argument("--save", help="also save the demo project JSON here")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the consumer (e.g. `| head`) closed the pipe; exit quietly
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: not a Banger project file (invalid JSON: {exc})",
              file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
