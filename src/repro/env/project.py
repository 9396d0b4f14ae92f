"""The Banger environment facade: one object, the paper's four-step workflow.

    "The first step in using Banger is to draw a hierarchical dataflow graph
    of the application... Next, we define a target machine... Third, we use
    a novel programmable pocket calculator metaphor to specify algorithms as
    small sequential tasks.  Finally, we generate the code."

:class:`BangerProject` walks exactly those steps, with instant feedback
available at every point and trial runs of single nodes or the whole design.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.calc.cost import measure_work
from repro.calc.interp import RunResult, run_program
from repro.calc.panel import CalculatorPanel
from repro.errors import ReproError, ValidationError, malformed_as
from repro.graph.dataflow import DataflowGraph
from repro.graph.hierarchy import flatten
from repro.graph.node import NodeKind, TaskNode
from repro.graph.serialize import dataflow_from_dict, dataflow_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine, make_machine
from repro.machine.params import MachineParams
from repro.sched.base import Scheduler
from repro.sched.incremental import IncrementalResult, incremental_reschedule
from repro.sched.registry import scheduler_cache_key
from repro.sched.schedule import Schedule
from repro.sched.service import (
    ScheduleRequest,
    ScheduleService,
    as_request,
    default_family,
)
from repro.sched.sweeps import SpeedupReport
from repro.sim.dataflow_exec import DataflowResult, run_dataflow
from repro.sim.threaded import ParallelResult, run_parallel
from repro.env.feedback import Feedback, project_feedback
from repro.viz.gantt import render_gantt, render_gantt_series
from repro.viz.graphs import render_dataflow
from repro.viz.speedup import render_speedup_chart


class BangerProject:
    """A complete Banger session: design + machine + programs + schedules.

    Every scheduling query (``schedule``/``gantt``/``gantt_series``/
    ``speedup``/``speedup_chart``) accepts either the classic positional
    arguments or one :class:`~repro.sched.service.ScheduleRequest`, and is
    served by a content-addressed :class:`ScheduleService`, so unchanged
    questions are answered from cache and mutators evict exactly the
    entries they invalidate.

    Parameters
    ----------
    name:
        Project (and default design) name.
    service:
        The scheduling service to use (default: a private one per project).
    """

    def __init__(self, name: str = "untitled", service: ScheduleService | None = None):
        self.name = name
        self.design: DataflowGraph = DataflowGraph(name)
        self.machine: TargetMachine | None = None
        self.service: ScheduleService = service if service is not None else ScheduleService()
        self._flat: TaskGraph | None = None
        self._flat_hash: str | None = None
        # Last schedule produced per scheduler key — the base an edit's
        # reschedule() re-times incrementally.  Deliberately NOT cleared by
        # _invalidate: surviving the edit is its entire purpose.
        self._prior: dict[str, Schedule] = {}

    # ------------------------------------------------------------------ #
    # step 1: the drawing
    # ------------------------------------------------------------------ #
    def set_design(self, design: DataflowGraph) -> "BangerProject":
        self.design = design
        self._invalidate()
        return self

    def _invalidate(self, *, design: bool = True,
                    old_machine: TargetMachine | None = None) -> None:
        """Evict cached schedules made stale by a mutation.

        Content addressing keeps the cache *correct* regardless (a mutated
        graph or machine hashes to fresh keys); eviction reclaims the
        entries that can no longer be requested.
        """
        if design:
            if self._flat_hash is not None:
                self.service.invalidate(graph_hash=self._flat_hash)
            self._flat = None
            self._flat_hash = None
        if old_machine is not None:
            self.service.invalidate(machine_hash=old_machine.content_hash())

    def _adopt_flat(self, flat: TaskGraph) -> None:
        """Replace the scheduling view, evicting the old one's cache rows."""
        self._invalidate()
        self._flat = flat

    # ------------------------------------------------------------------ #
    # step 2: the target machine
    # ------------------------------------------------------------------ #
    def set_machine(
        self,
        family: str | TargetMachine = "hypercube",
        n_procs: int = 4,
        params: MachineParams | None = None,
    ) -> "BangerProject":
        """Define the target machine.

        Polymorphic: pass either ``family, n_procs, params`` (the paper's
        four-characteristics description) or a ready-made
        :class:`TargetMachine`.  Replacing the machine evicts the cached
        schedules that depended on the old one.
        """
        if isinstance(family, TargetMachine):
            if params is not None:
                raise ReproError("pass either a TargetMachine or family+n_procs+params, not both")
            machine = family
        else:
            machine = make_machine(family, n_procs, params or MachineParams())
        old = self.machine
        self.machine = machine
        if old is not None:
            self._invalidate(design=False, old_machine=old)
        return self

    def _require_machine(self) -> TargetMachine:
        if self.machine is None:
            raise ReproError(
                "no target machine defined; call set_machine(family, n_procs, params)"
            )
        return self.machine

    # ------------------------------------------------------------------ #
    # step 3: the calculator
    # ------------------------------------------------------------------ #
    def _find_task(self, node: str) -> tuple[DataflowGraph, TaskNode]:
        """Locate a (possibly nested, dot-separated) primitive task node."""
        graph = self.design
        parts = node.split(".")
        for part in parts[:-1]:
            graph = graph.subgraph(part)
        found = graph.node(parts[-1])
        if not isinstance(found, TaskNode) or found.kind is NodeKind.COMPOSITE:
            raise ReproError(f"{node!r} is not a primitive task node")
        return graph, found

    def open_calculator(self, node: str) -> CalculatorPanel:
        """A panel pre-loaded with the node's routine (if any)."""
        _, task = self._find_task(node)
        panel = CalculatorPanel(task.name)
        if task.program:
            from repro.calc.parser import parse

            program = parse(task.program)
            panel.declare_input(*program.inputs)
            panel.declare_output(*program.outputs)
            panel.declare_local(*program.locals)
            body_lines = [
                line
                for line in task.program.splitlines()
                if line.strip()
                and not line.split()[0].lower() in ("task", "input", "output", "local")
            ]
            for line in body_lines:
                panel.type_line(line)
        return panel

    def attach_program(
        self, node: str, source: str, update_work: bool = False, **sample_inputs: Any
    ) -> Feedback:
        """Install a PITS routine on a node; returns fresh project feedback.

        With ``update_work=True`` and sample inputs, the routine is trial-run
        and the node's scheduling weight becomes the measured op count.
        """
        _, task = self._find_task(node)
        task.program = source
        if update_work:
            task.work = max(measure_work(source, **sample_inputs), 1e-9)
        self._invalidate()
        return self.feedback()

    def commit_panel(self, node: str, panel: CalculatorPanel, **sample_inputs: Any) -> Feedback:
        """Write a panel's program back onto its node."""
        return self.attach_program(
            node, panel.source(), update_work=bool(sample_inputs), **sample_inputs
        )

    def trial_run_node(self, node: str, **inputs: Any) -> RunResult:
        """Instant feedback: run one node's routine on sample inputs."""
        _, task = self._find_task(node)
        if task.program is None:
            raise ReproError(f"node {node!r} has no PITS program yet")
        return run_program(task.program, **inputs)

    # ------------------------------------------------------------------ #
    # feedback + flattening
    # ------------------------------------------------------------------ #
    def feedback(self) -> Feedback:
        return project_feedback(self.design if len(self.design) else None, self.machine)

    def outline(self) -> str:
        return render_dataflow(self.design)

    def flat(self) -> TaskGraph:
        """The flattened scheduling IR (cached until the design changes:
        read it, do not edit it)."""
        if self._flat is None:
            self._flat = flatten(self.design)
        return self._flat

    def hashed_flat(self) -> tuple[TaskGraph, str]:
        """:meth:`flat` and its content hash, computed on first demand and
        kept with it."""
        flat = self.flat()
        if self._flat_hash is None:
            self._flat_hash = flat.content_hash()
        return flat, self._flat_hash

    def calibrate(self, inputs: dict[str, Any] | None = None) -> "BangerProject":
        """Trial-run the whole design and reweight tasks by measured ops."""
        from repro.sim.dataflow_exec import calibrate_works

        self._adopt_flat(calibrate_works(self.flat(), inputs))
        return self

    def split_node(self, node: str, ways: int) -> "BangerProject":
        """Shard a data-parallel (forall) node across ``ways`` shards.

        Operates on the flattened scheduling view; the drawn design stays
        coarse (the shards appear in schedules, runs, and generated code).
        """
        from repro.graph.transform import split_forall

        self._adopt_flat(split_forall(self.flat(), node, ways))
        return self

    def split_all(self, ways: int) -> "BangerProject":
        """Shard every splittable node ``ways`` ways."""
        from repro.graph.transform import split_all

        self._adopt_flat(split_all(self.flat(), ways))
        return self

    def advise(self) -> list:
        """Measured improvement suggestions (see :mod:`repro.env.advisor`)."""
        from repro.env.advisor import advise

        return advise(self.flat(), self._require_machine())

    # ------------------------------------------------------------------ #
    # step 3.5: scheduling and prediction
    # ------------------------------------------------------------------ #
    def _sweep_request(
        self,
        request: Any,
        default_procs: tuple[int, ...],
        **overrides: Any,
    ) -> ScheduleRequest:
        """Normalize arguments into a fully resolved sweep request.

        Unset fields default from the configured machine: its parameter set
        and its topology family — a mesh project sweeps meshes, not the
        hypercube the old API hardcoded.
        """
        req = as_request(request, **overrides)
        machine = self._require_machine()
        return ScheduleRequest(
            scheduler=req.scheduler,
            proc_counts=req.proc_counts or default_procs,
            family=req.family or default_family(machine),
            params=req.params or machine.params,
        )

    def schedule(
        self, scheduler: str | Scheduler | ScheduleRequest = "mh"
    ) -> Schedule:
        """Map the flattened design onto the machine (cached by content)."""
        req = as_request(scheduler)
        machine = self._require_machine()
        flat, flat_hash = self.hashed_flat()
        result = self.service.schedule(flat, machine, req.scheduler, flat_hash)
        self._prior[scheduler_cache_key(req.resolved_scheduler())] = result
        return result

    def reschedule(
        self, scheduler: str | Scheduler | ScheduleRequest = "mh"
    ) -> IncrementalResult:
        """Re-time the design after an edit, reusing the prior schedule.

        If this project has scheduled with the same scheduler on the same
        machine before, only the edited tasks (and their cone) are
        re-placed — the clean prefix of the prior schedule is kept verbatim
        (see :mod:`repro.sched.incremental`).  Without a usable prior (first
        call, or the machine changed) it falls back to a full
        :meth:`schedule` and reports ``fallback="cold"``.

        Incremental schedules are *edit products*, not content-addressed
        answers, so they are never written into the service cache — a later
        :meth:`schedule` of the same design still computes (and caches) the
        scheduler's own answer.
        """
        req = as_request(scheduler)
        machine = self._require_machine()
        flat, flat_hash = self.hashed_flat()
        key = scheduler_cache_key(req.resolved_scheduler())
        prior = self._prior.get(key)
        if (
            prior is None
            or prior.machine.content_hash() != machine.content_hash()
        ):
            full = self.service.schedule(flat, machine, req.scheduler, flat_hash)
            result = IncrementalResult(
                full, len(flat), len(flat), 0, fallback="cold"
            )
        else:
            result = incremental_reschedule(prior, flat, flat_hash)
        self._prior[key] = result.schedule
        return result

    def gantt(
        self, scheduler: str | Scheduler | ScheduleRequest = "mh", width: int = 72
    ) -> str:
        """Render the schedule's Gantt chart (reuses ``schedule()``'s cache)."""
        return render_gantt(self.schedule(scheduler), width=width)

    def gantt_series(
        self,
        request: ScheduleRequest | Sequence[int] | None = None,
        scheduler: str | Scheduler | None = None,
        family: str | None = None,
        *,
        proc_counts: Sequence[int] | None = None,
        params: MachineParams | None = None,
        width: int = 72,
    ) -> str:
        """Figure 3's stack of Gantt charts across machine sizes."""
        req = self._sweep_request(
            request, (2, 4, 8), scheduler=scheduler, family=family,
            proc_counts=tuple(proc_counts) if proc_counts is not None else None,
            params=params,
        )
        flat, flat_hash = self.hashed_flat()
        schedules = self.service.schedules_for_sizes(
            flat, req.proc_counts, scheduler=req.scheduler,
            family=req.family, params=req.params, graph_fp=flat_hash,
        )
        return render_gantt_series(schedules, width=width)

    def speedup(
        self,
        request: ScheduleRequest | Sequence[int] | None = None,
        scheduler: str | Scheduler | None = None,
        family: str | None = None,
        *,
        proc_counts: Sequence[int] | None = None,
        params: MachineParams | None = None,
    ) -> SpeedupReport:
        """Predicted speedup across machine sizes (Figure 3's chart data)."""
        req = self._sweep_request(
            request, (1, 2, 4, 8), scheduler=scheduler, family=family,
            proc_counts=tuple(proc_counts) if proc_counts is not None else None,
            params=params,
        )
        return self.speedups([req])[0]

    def speedups(self, requests: Sequence[ScheduleRequest]) -> list[SpeedupReport]:
        """One :meth:`speedup` report per request, all of them resolved as
        one batch of the service (``banger sweep``: one per scheduler)."""
        resolved = [self._sweep_request(req, (1, 2, 4, 8)) for req in requests]
        flat, flat_hash = self.hashed_flat()
        return self.service.predict_speedups(flat, resolved, flat_hash)

    def speedup_chart(
        self,
        request: ScheduleRequest | Sequence[int] | None = None,
        scheduler: str | Scheduler | None = None,
        family: str | None = None,
    ) -> str:
        """The rendered speedup prediction chart."""
        return render_speedup_chart(
            self.speedup(request, scheduler=scheduler, family=family)
        )

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self, inputs: dict[str, Any] | None = None) -> DataflowResult:
        """Sequential trial run of the entire design."""
        return run_dataflow(self.flat(), inputs)

    def run_parallel(
        self, inputs: dict[str, Any] | None = None, scheduler: str | Scheduler = "mh"
    ) -> ParallelResult:
        """Real threaded run of the scheduled design."""
        return run_parallel(self.schedule(scheduler), inputs)

    # ------------------------------------------------------------------ #
    # step 4: code generation
    # ------------------------------------------------------------------ #
    #: historical ``generate(language=...)`` names -> backend targets
    _LEGACY_TARGETS = {"python": "threads"}

    def lower(self, scheduler: str | Scheduler | ScheduleRequest = "mh"):
        """The design's lowered program (cached by content, like schedules).

        Returns the :class:`~repro.codegen.ir.LoweredProgram` every codegen
        backend consumes, memoized in the project's
        :class:`ScheduleService` under the same content-addressed key as
        the schedule itself.
        """
        req = as_request(scheduler)
        machine = self._require_machine()
        flat, flat_hash = self.hashed_flat()
        return self.service.lower(flat, machine, req.scheduler, flat_hash)

    def generate(
        self, language: str = "threads", scheduler: str | Scheduler = "mh"
    ) -> str:
        """Generate the parallel program for a backend target.

        ``language`` names a registered backend (``threads``, ``mpi``,
        ``c``; see :func:`repro.codegen.list_backends`); the historical
        name ``python`` still maps to ``threads``.
        """
        from repro.codegen.api import generate as generate_source

        target = self._LEGACY_TARGETS.get(language, language)
        return generate_source(self, target=target, scheduler=scheduler)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "type": "banger-project",
            "name": self.name,
            "design": dataflow_to_dict(self.design),
        }
        if self.machine is not None:
            doc["machine"] = self.machine.to_dict()
        return doc

    @classmethod
    @malformed_as(ValidationError, "project")
    def from_dict(
        cls, doc: dict[str, Any], service: ScheduleService | None = None
    ) -> "BangerProject":
        """Rebuild a project from its saved document.

        ``service`` lets long-lived hosts (the banger daemon, its worker
        processes) share one content-addressed :class:`ScheduleService`
        across every deserialized project, so identical requests hit the
        same cache no matter which request they arrived in.
        """
        if doc.get("type") != "banger-project":
            raise ValidationError(f"not a project document (type={doc.get('type')!r})")
        project = cls(doc.get("name", "untitled"), service=service)
        project.design = dataflow_from_dict(doc["design"])
        if "machine" in doc:
            project.machine = TargetMachine.from_dict(doc["machine"])
        return project

    @classmethod
    def from_parts(
        cls,
        name: str,
        design: DataflowGraph,
        machine: TargetMachine | None = None,
        flat: TaskGraph | None = None,
        flat_hash: str | None = None,
        service: ScheduleService | None = None,
    ) -> "BangerProject":
        """A project over parts already built, as :meth:`parts` returns them.

        ``flat`` is taken as :meth:`flat` of ``design`` and ``flat_hash`` as
        its content hash, unchecked: a host that patches what it built for
        an earlier request hands them in rather than flattening again.
        """
        project = cls(name, service=service)
        project.design = design
        project.machine = machine
        project._flat = flat
        project._flat_hash = flat_hash if flat is not None else None
        return project

    def parts(
        self,
    ) -> tuple[DataflowGraph, TargetMachine | None, TaskGraph | None, str | None]:
        """``(design, machine, flat, flat_hash)``; the flat graph and its hash
        are ``None`` until first demanded."""
        return self.design, self.machine, self._flat, self._flat_hash

    def fingerprints(self) -> dict[str, str | None]:
        """Content hashes of the scheduling inputs this project implies.

        ``graph`` is the flattened task graph's hash, ``machine`` the
        configured machine's (``None`` until one is set).  Two projects with
        equal fingerprints ask identical scheduling questions: the schedule
        cache keys on these two hashes, and so does
        :func:`repro.server.ops.coalesce_key`.  The daemon keys on a
        request's bytes instead.
        """
        return {
            "graph": self.hashed_flat()[1],
            "machine": self.machine.content_hash() if self.machine else None,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(
        cls, path: str, service: ScheduleService | None = None
    ) -> "BangerProject":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), service=service)

    def __repr__(self) -> str:
        machine = self.machine.name if self.machine else "unset"
        return (
            f"BangerProject({self.name!r}, nodes={len(self.design)}, "
            f"machine={machine})"
        )
