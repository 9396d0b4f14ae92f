"""``pipeline_batch``: the whole pipeline in-process, one project after another.

*Why this workload:* the library and CLI use the same layers without the
server.  Each operation takes one saved project through lint (with the
concurrency analysis), scheduling, the static and dynamic simulators, the
reactive rescheduler, lowering, three source backends, two executors and
the sequential reference run — the only workload where ``lint``,
``analysis``, ``codegen``, ``sim`` and ``calc`` dominate.  Every pass over
the list starts from cold process-wide caches, as a fresh ``banger``
invocation would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import apps
from repro.analysis.cache import shared_cache
from repro.approx import approx_ge
from repro.codegen.backends import get_backend
from repro.env.project import BangerProject
from repro.lint import lint_project
from repro.machine.compiled import clear_compiled
from repro.machine.scenario import PROFILES, seeded_scenario
from repro.sched.reactive import reactive_execute
from repro.sim import simulate, simulate_dynamic

from bench import inputs
from bench.spec import Sizes
from bench.trace import Tracer

SOURCE_TARGETS = ("threads", "mpi", "c")


@dataclass
class Item:
    """One saved project and, for the linear systems, its known answer."""

    name: str
    doc: dict[str, Any]
    n_tasks: int
    solution: np.ndarray | None = None


@dataclass
class Outcome:
    """What one operation produced, kept for the checks after the clock."""

    item: Item
    latency_ms: float
    schedule: Any
    static_trace: Any
    outputs: dict[str, dict[str, Any]]
    diagnostics: int
    ir_ops: int
    source_bytes: dict[str, int]


def system(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A diagonally dominant ``A`` and a ``b`` (no pivoting needed)."""
    return rng.uniform(-1, 1, (n, n)) + n * np.eye(n), rng.uniform(-1, 1, n)


class PipelineBatch:
    name = "pipeline_batch"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        rng = np.random.default_rng(seed)
        a3, b3 = system(rng, 3)
        a4, b4 = system(rng, 4)
        designs: list[tuple[Any, np.ndarray | None]] = [
            (apps.lu3_design(a3, b3), np.linalg.solve(a3, b3)),
            (apps.lun_design(4, a4, b4), np.linalg.solve(a4, b4)),
            (apps.heat_design(), None),
            (apps.matmul_design(4, a4, a4.T), None),
            (apps.montecarlo_design(), None),
            (apps.pipeline_design(), None),
        ]
        for n in sizes.batch_lun_sizes:
            a, b = system(rng, n)
            designs.append((apps.lun_design(n, a, b), np.linalg.solve(a, b)))
        self.items = []
        for design, solution in designs:
            project = BangerProject(design.name).set_design(design)
            project.set_machine("hypercube", 4, inputs.PARAMS)
            self.items.append(
                Item(design.name, project.to_dict(), len(project.flat()), solution)
            )
        self.group = len(self.items)

    def micro_doc(self) -> dict[str, Any]:
        return self.items[-1].doc

    def input_sizes(self) -> dict[str, Any]:
        return {"projects": [item.name for item in self.items],
                "tasks": [item.n_tasks for item in self.items]}

    # ------------------------------------------------------------------ #
    def run_passes(self, seconds: float, tracer: Tracer | None) -> list[Outcome]:
        """Whole passes over the list until ``seconds`` have gone by."""
        deadline = time.perf_counter() + seconds
        outcomes: list[Outcome] = []
        while not outcomes or time.perf_counter() < deadline:
            shared_cache().clear()
            clear_compiled()
            outcomes.extend(self.run_one(item, tracer) for item in self.items)
        return outcomes

    def run_one(self, item: Item, tracer: Tracer | None) -> Outcome:
        # Functions the benchmark calls itself are wrapped here; the methods
        # underneath (project.lower, backend.emit, ...) are wrapped on their
        # classes by Tracer.install().
        def traced(fn: Any, name: str) -> Any:
            return tracer.wrap(fn, name) if tracer else fn

        if tracer:
            tracer.begin_op("project", name=item.name, tasks=item.n_tasks)
        start = time.perf_counter()
        project = BangerProject.from_dict(item.doc)
        report = traced(lint_project, "lint.project")(project, concurrency=True)
        schedule = project.schedule("mh")
        static = traced(simulate, "sim.static")(schedule)
        traced(simulate, "sim.contention")(schedule, contention=True)
        dynamic = traced(simulate_dynamic, "sim.dynamic")
        for profile in PROFILES:
            scenario = seeded_scenario(
                self.seed, schedule.machine, schedule.makespan(), profile
            )
            dynamic(schedule, scenario)
        traced(reactive_execute, "sched.reactive")(schedule, scenario)
        program = project.lower("mh")
        sources = {t: get_backend(t).emit(program) for t in SOURCE_TARGETS}
        outputs = {
            "inproc": get_backend("inproc").run(program),
            "threads": get_backend("threads").run(program),
            "reference": project.run().outputs,
        }
        latency_ms = (time.perf_counter() - start) * 1000.0
        return Outcome(
            item, latency_ms, schedule, static, outputs,
            diagnostics=len(report.diagnostics),
            ir_ops=program.step_count(),
            source_bytes={t: len(s.encode("utf-8")) for t, s in sources.items()},
        )

    # ------------------------------------------------------------------ #
    def verify(self, outcomes: list[Outcome]) -> list[str]:
        failures = []
        for pos, outcome in enumerate(outcomes):
            problem = self._check(outcome)
            if problem:
                failures.append(f"{outcome.item.name} (op {pos}): {problem}")
        return failures

    def _check(self, outcome: Outcome) -> str | None:
        reference = outcome.outputs["reference"]
        for backend in ("inproc", "threads"):
            got = outcome.outputs[backend]
            if got.keys() != reference.keys():
                return f"{backend} produced {sorted(got)}, not {sorted(reference)}"
            for var, value in reference.items():
                if not np.array_equal(np.asarray(got[var]), np.asarray(value)):
                    return f"{backend} output {var!r} differs from project.run"
        solution = outcome.item.solution
        if solution is not None and not np.allclose(reference["x"], solution):
            return "x differs from numpy.linalg.solve"
        if not approx_ge(outcome.schedule.makespan(), outcome.static_trace.makespan()):
            return "contention-free simulated makespan exceeds the static makespan"
        null = simulate_dynamic(outcome.schedule)
        if null.runs != outcome.static_trace.runs or null.hops != outcome.static_trace.hops:
            return "the empty scenario does not reproduce the static trace"
        return None
