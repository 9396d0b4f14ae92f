"""Command-line interface: drive a saved Banger project from the shell.

Projects are the JSON documents written by
:meth:`repro.env.project.BangerProject.save`.  Usage::

    python -m repro.cli feedback  project.json
    python -m repro.cli outline   project.json
    python -m repro.cli edit      project.json --move t3 2 --swap a b
    python -m repro.cli run       project.json [--parallel]
    python -m repro.cli codegen   project.json --target threads -o prog.py
    python -m repro.cli topology  --family hypercube --procs 8
    python -m repro.cli projects  put alice/mydesign project.json
    python -m repro.cli projects  log alice/mydesign
    python -m repro.cli demo

Wherever a command takes a project file, a store reference works too:
``corpus://<name>[@v]`` draws from the built-in scenario corpus and
``store://<tenant>/<name>[@v]`` from the local project store
(``--store``/``BANGER_STORE_DIR``, default ``.banger-store``) — so
``banger sweep corpus://family_butterfly`` needs no JSON file at all.

Seven commands are also daemon endpoints and share its driver,
:mod:`repro.server.ops`: ``ops.<cmd>_options`` reads the parsed flags under
their payload-field names and is the only place an option is typed,
defaulted and range-checked, so what ``POST /<cmd>`` refuses with a 400
this refuses in the same words with exit 2 (``docs/server.md`` says when).
``--flag`` = payload field (default)::

    lint      --suppress A,B = suppress ([]), --fail-on = fail_on (error),
              --concurrency = concurrency (false), --scheduler = scheduler (mh)
    schedule  --scheduler = scheduler (mh), --gantt = gantt (false);
              base_schedule has no flag
    speedup   --scheduler = scheduler (mh), --procs 1,2 = proc_counts
              ([1, 2, 4, 8]), --family = family (the project machine's)
    sweep     --scheduler A,B = schedulers (["mh"]), --procs and --family
              as for speedup
    simulate  --scheduler = scheduler (mh), --contention = contention (false),
              --scenario FILE = scenario (none; the loaded document),
              --reactive = reactive (false), --threshold = threshold (2.0)
    codegen   --scheduler = scheduler (mh), --target = target (threads),
              --run = run (false)
    conform   --seed = seed (0), --runs = runs (100), --oracle A,B = oracles
              (all), --budget = budget (none)

``projects`` drives the action functions behind ``/projects`` the same way
(:mod:`repro.server.store_api`, whose ``FAILURES`` table sets the exit code of
a store error; ``docs/projects.md`` has the options).

Exit codes are uniform across every subcommand:

* ``0`` — success;
* ``1`` — the command ran but found problems (lint errors, failed
  feedback, conformance failures, a scheduling error);
* ``2`` — an unusable request, :class:`repro.server.ops.OpError` (bad flag
  values, non-project files, malformed JSON — each named by what was being
  loaded), or a nonexistent file.

Every failure prints a single actionable message — the command-line
flavour of instant feedback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

from repro import __version__
from repro.env.project import BangerProject
from repro.errors import ReproError, StoreError
from repro.machine.topologies import build_topology
from repro.sched import render_explanations, report
from repro.sched.metrics import ScheduleReport
from repro.server import ops, store_api
from repro.server.ops import OpError
from repro.store.refs import parse_version
from repro.viz import render_gantt, render_trace_gantt, render_topology
from repro.viz.export import schedule_to_chrome_trace, schedule_to_csv


#: Uniform exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _store_root(explicit: str | None = None) -> str:
    """The local store directory: ``--store``, else the environment, else
    ``.banger-store`` in the working directory."""
    return explicit or os.environ.get("BANGER_STORE_DIR") or ".banger-store"


def _parse_ref(text: str) -> tuple[str, str, int | None]:
    """``tenant/name[@version]`` -> its parts."""
    version: int | None = None
    if "@" in text:
        text, _, vtext = text.rpartition("@")
        version = parse_version(vtext)
    if "/" not in text:
        raise OpError(
            f"bad project ref {text!r}; expected tenant/name[@version]"
        )
    tenant, name = text.split("/", 1)
    return tenant, name, version


def _json_file(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _project(path: str) -> BangerProject:
    """The project in a file, or behind a ``corpus://`` / ``store://`` ref."""
    if path.startswith("corpus://"):
        import tempfile

        from repro.store import ProjectRepository
        from repro.store.corpus import CORPUS_TENANT, seed_corpus

        _, name, version = _parse_ref(f"{CORPUS_TENANT}/{path[len('corpus://'):]}")
        with tempfile.TemporaryDirectory(prefix="banger-corpus-") as root:
            repo = ProjectRepository(root)
            seed_corpus(repo)
            doc = repo.get(CORPUS_TENANT, name, version)
    elif path.startswith("store://"):
        from repro.store import ProjectRepository

        tenant, name, version = _parse_ref(path[len("store://"):])
        repo = ProjectRepository(_store_root())
        doc = store_api.record(repo, tenant, name, {"version": version})["document"]
    else:
        doc = _json_file(path)
    return BangerProject.from_dict(doc)


def _load(
    path: str, what: str = "Banger project", load: Callable[[str], Any] = _project
) -> Any:
    """Every input is read through here, so a bad one is blamed by name: a
    file that is not JSON, an unknown store ref or a document that is not what
    the flag needs is an unusable request (exit 2), not a finding."""
    try:
        return load(path)
    except json.JSONDecodeError as exc:
        raise OpError(f"cannot load {what} {path}: invalid JSON ({exc})") from None
    except ReproError as exc:
        raise OpError(f"cannot load {what}: {exc}") from None


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #
def cmd_feedback(args: argparse.Namespace) -> int:
    project = _load(args.project)
    fb = project.feedback()
    print(fb.render())
    return 0 if fb.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import render_json, render_sarif, render_text

    project = _load(args.project)
    opts = ops.lint_options(vars(args))
    report = ops.run_lint(project, opts)
    if args.baseline:
        from repro.lint import apply_baseline, load_baseline

        baseline = _load(args.baseline, "SARIF baseline", load_baseline)
        report = apply_baseline(report, baseline)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report, artifact=args.project))
    else:
        print(render_text(report))
    return 1 if ops.lint_failed(report, opts) else 0


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
    schedule, _ = ops.run_schedule(project, ops.schedule_options(vars(args)))
    print(ScheduleReport.header())
    print(report(schedule).as_row())
    if args.gantt:
        print()
        print(render_gantt(schedule, show_messages=args.messages,
                           highlight_critical=True))
    if args.why:
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
        raise OpError("nothing to edit; pass --move TASK PROC and/or --swap A B")
    scheduler = ops.scheduler_option(vars(args))
    schedule = project.schedule(scheduler)
    makespan_before = schedule.makespan()
    edits: list[dict] = []
    lines: list[str] = []
    for task, proc_text in moves:
        try:
            proc = int(proc_text)
        except ValueError:
            raise OpError(
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
            "scheduler": scheduler,
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
    from repro.viz import render_speedup_chart

    project = _load(args.project)
    print(render_speedup_chart(project.speedup(ops.speedup_options(vars(args)))))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    project = _load(args.project)
    requests = ops.sweep_options(vars(args))
    reports = ops.run_sweep(project, requests)
    for request in requests:
        print(reports[request.scheduler].table())
        if args.gantt:
            print()
            print(project.gantt_series(request))
        print()
    stats = project.service.stats()
    if args.stats:
        print(stats.render())
    if args.json:
        doc = ops.sweep_document(project, reports)
        doc["proc_counts"] = list(requests[0].proc_counts)
        doc["stats"] = stats.as_dict()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    project = _load(args.project)
    raw = vars(args)
    if args.scenario:
        raw = {**raw, "scenario": _load(args.scenario, "fault scenario", _json_file)}
    opts = ops.simulate_options(raw, project.machine)
    schedule, trace, result = ops.run_simulate(project, opts)
    scenario = opts["scenario"]
    print(render_trace_gantt(trace))
    print()
    print(f"static makespan    {schedule.makespan():.3f}")
    if scenario is None:
        print(f"simulated makespan {trace.makespan():.3f}"
              + (" (with link contention)" if args.contention else ""))
        return 0
    label = scenario.name or "scenario"
    if result is not None:
        passive = result.traces[0]
        print(f"passive makespan   {passive.makespan():.3f} under {label!r} "
              f"({len(passive.stranded)} stranded)")
        print(f"reactive makespan  {trace.makespan():.3f} "
              f"({result.n_rounds} round(s), {result.total_remaps} task(s) "
              f"re-mapped, {len(trace.stranded)} stranded)")
    else:
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
        scheduler = ops.scheduler_option(vars(args))
        result = project.run_parallel(scheduler=scheduler)
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
        raise OpError("codegen needs a project file (or --list)")
    project = _load(args.project)
    opts = ops.codegen_options(vars(args))
    _, source, outputs = ops.run_codegen(project, opts)
    if outputs is not None:
        for name in sorted(outputs):
            print(f"{name} = {outputs[name]}")
    elif source is None:
        raise OpError(f"target {opts['backend'].name!r} emits no source; "
                      f"pass --run to execute it")
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import corpus_paths, load_entry, replay_entry, run

    if args.replay:
        if not os.path.isdir(args.replay):
            raise OpError(f"no such corpus directory: {args.replay}")
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

    report = run(**ops.conform_options(vars(args)), corpus_dir=args.corpus)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


#: ``banger serve``'s flag for each bound the daemon checks, by the name its
#: refusal starts with.
SERVE_FLAGS = {"workers": "--workers", "queue_limit": "--queue-limit",
               "request_timeout": "--timeout", "cache_entries": "--cache-entries"}


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import BangerDaemon, run_daemon

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

    try:
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
    except ReproError as exc:  # a bound the daemon refuses, named as the flag
        name, _, rest = str(exc).partition(" ")
        raise OpError(f"{SERVE_FLAGS.get(name, name)} {rest}") from None

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
    """Ref parsing, the daemon's own action functions (so what ``/projects``
    refuses this refuses alike), and a text rendering of the reply document."""
    from repro.store import ProjectRepository

    repo = ProjectRepository(_store_root(args.store))
    action = args.action
    # list, seed and gc take no ref
    tenant, name, version = _parse_ref(args.ref) if "ref" in args else (None,) * 3
    if action == "list" and args.tenant:
        for p in store_api.list_projects(repo, args.tenant)["projects"]:
            print(f"{args.tenant}/{p['name']}@{p['version']}  "
                  f"{p['manifest'][:12]}  {p['message']}")
    elif action == "list":
        doc = store_api.list_tenants(repo)
        for owner in doc["tenants"]:
            n = len(store_api.list_projects(repo, owner)["projects"])
            print(f"{owner}  ({n} project(s))")
        s = doc["stats"]
        print(f"{s['projects']} project(s), {s['versions']} version(s), "
              f"{s['blobs']} blob(s), {s['blob']['stored_bytes']} byte(s) on disk")
    elif action == "seed":
        from repro.store.corpus import seed_corpus

        info = seed_corpus(repo)
        print(f"seeded {len(info)} corpus project(s) into "
              f"{repo.stats()['blob']['stored_bytes']} stored byte(s)")
    elif action == "put":
        raw = {**vars(args), "project": _load(args.project, load=_json_file)}
        if args.scenario:
            raw["scenario"] = _load(args.scenario, "fault scenario", _json_file)
        doc = store_api.put(repo, tenant, name, raw)
        print(f"{tenant}/{name}@{doc['version']}  {doc['manifest'][:12]}  "
              f"(project {doc['project'][:12]})")
    elif action == "get":
        doc = store_api.record(repo, tenant, name, {"version": version})
        text = json.dumps(doc["document"], indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
    elif action == "log":
        for entry in store_api.log(repo, tenant, name)["versions"]:
            project = (entry.get("project") or "?")[:12]
            print(f"v{entry['v']}  manifest {entry['manifest'][:12]}  "
                  f"project {project}  {entry.get('message', '')}")
    elif action == "diff":
        to_tenant, to_name, version_b = _parse_ref(args.against)
        delta = store_api.diff(repo, tenant, name, {
            "version_a": version, "version_b": version_b,
            "to_tenant": to_tenant, "to_name": to_name,
        })
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
    elif action == "fork":
        to_tenant, to_name, _ = _parse_ref(args.to)
        doc = store_api.fork(repo, tenant, name, {
            "to_tenant": to_tenant, "to_name": to_name,
            "version": version, "message": args.message,
        })
        print(f"{doc['tenant']}/{doc['name']}@{doc['version']}  "
              f"{doc['manifest'][:12]}  (zero-copy)")
    elif action == "gc":
        doc = store_api.gc(repo, vars(args))
        print(f"deleted {doc['deleted']} blob(s); {doc['live']} live, "
              f"{doc['stored_bytes']} byte(s) on disk")
    return EXIT_OK


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
        p.add_argument("--scheduler",
                       help="heuristic name (default: mh; see docs/SCHEDULERS.md)")

    def add_sizes(p: argparse.ArgumentParser) -> None:
        p.add_argument("--procs", dest="proc_counts", type=ops.comma_list,
                       metavar="PROCS",
                       help="comma-separated machine sizes (default: 1,2,4,8)")
        p.add_argument("--family", help="topology family (default: the "
                                        "project machine's family)")

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
    p.add_argument("--fail-on", metavar="{error,warning}",
                   help="lowest severity that makes the exit status nonzero "
                        "(default: error)")
    p.add_argument("--suppress", type=ops.comma_list,
                   help="comma-separated rule IDs to hide, e.g. XL303,MF401")
    p.add_argument("--baseline", default=None, metavar="REPORT.SARIF",
                   help="suppress findings recorded in a previous SARIF "
                        "report; fail only on new ones")
    p.add_argument("--concurrency", action="store_true",
                   help="also schedule the project and verify the generated "
                        "communication plan (CG5xx rules)")
    add_scheduler(p)
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
    add_sizes(p)
    p.set_defaults(fn=cmd_speedup)

    p = sub.add_parser(
        "sweep",
        help="cached scheduling sweeps across machine sizes",
        epilog="Results are memoized by content (graph x machine x scheduler); "
               "rerunning an unchanged sweep is served from cache.  Misses run "
               "in order, in this process.",
    )
    add_project(p)
    add_sizes(p)
    p.add_argument("--scheduler", dest="schedulers", type=ops.comma_list,
                   metavar="SCHEDULER",
                   help="comma-separated heuristic names (default: mh)")
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
    p.add_argument("--scenario",
                   help="fault-scenario JSON file to inject during the replay")
    p.add_argument("--reactive", action="store_true",
                   help="reschedule unstarted tasks online as faults appear "
                        "(requires --scenario)")
    p.add_argument("--threshold", type=float,
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
        "--target", help="codegen backend, see --list (default: threads)",
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
    p.add_argument("--seed", type=int, help="fuzzer seed (default 0)")
    p.add_argument("--runs", type=int,
                   help="number of generated cases (default 100)")
    p.add_argument("--oracle", dest="oracles", type=ops.comma_list, metavar="ORACLE",
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
               "/codegen /conform, GET /healthz /metrics, GET and POST "
               "/projects.  Identical in-flight "
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
                   help="response LRU size (default 512; 0 caches nothing)")
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
    a.add_argument("--max-bytes", type=ops.typed_word, default=None,
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
    except (FileNotFoundError, OpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StoreError):
            return store_api.failure(exc)[2]
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
