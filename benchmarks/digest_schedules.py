"""One digest over every schedule, re-timing, hand edit and reactive plan.

Run it under two checkouts' ``src/`` and compare the first line it prints:
equal digests mean a scheduling-layer refactor changed no schedule, plan or
trace.  The second line is the same sweep with every machine reloaded from its
own document (``TargetMachine.from_dict(m.to_dict())``, compiled tables
cleared first): it must equal the first — a saved project routes, schedules
and replans exactly like the in-memory one.

    PYTHONPATH=src python benchmarks/digest_schedules.py

Covered: all registry schedulers x the corpus designs x {hypercube 8, mesh
9, star 5, bus 4}; ``incremental_reschedule`` and ``full_reschedule`` for 50
seeded single-node edits (work edits, an added node, a ``dsh`` base);
``move_task`` / ``swap_tasks``; ``reactive_execute`` plans and traces for the
four scenario profiles x 10 seeds (processor and link failures included).
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.errors import ScheduleError
from repro.graph.generators import random_layered
from repro.machine import MachineParams
from repro.machine.compiled import clear_compiled
from repro.machine.machine import TargetMachine, make_machine
from repro.machine.scenario import PROFILES, seeded_scenario
from repro.sched.edit import move_task, swap_tasks
from repro.sched.incremental import full_reschedule, incremental_reschedule
from repro.sched.reactive import reactive_execute
from repro.sched.registry import SCHEDULERS, get_scheduler
from repro.sched.serialize import schedule_to_dict
from repro.store.corpus import corpus_names, corpus_taskgraph

PARAMS = MachineParams(msg_startup=0.4, transmission_rate=6.0, hop_latency=0.1)
MACHINES = (("hypercube", 8), ("mesh", 9), ("star", 5), ("bus", 4))


def sweep(build=make_machine) -> str:
    """The digest line of the whole sweep on machines made by ``build``."""
    digest = hashlib.sha256()
    counts = {"schedules": 0, "edits": 0, "hand_edits": 0, "reactive": 0, "doomed": 0}

    def feed(*docs: object) -> None:
        digest.update(json.dumps(docs, sort_keys=True, default=repr).encode())

    for family, n in MACHINES:
        machine = build(family, n, PARAMS)
        for design in corpus_names():
            graph = corpus_taskgraph(design)
            for name in sorted(SCHEDULERS):
                try:
                    feed(schedule_to_dict(get_scheduler(name).schedule(graph, machine)))
                except ScheduleError as exc:  # exhaustive past its budget
                    feed(name, str(exc))
                counts["schedules"] += 1

    machine = build("hypercube", 8, PARAMS)
    for seed in range(50):
        rng = random.Random(seed)
        graph = random_layered(40 + seed, 5, seed=seed)
        base = get_scheduler("dsh" if seed % 10 == 9 else "mh").schedule(graph, machine)
        edited = graph.copy()
        victim = rng.choice(edited.task_names)
        if seed % 10 == 8:  # an added node hanging off the victim
            edited.add_task("added", work=2.5)
            edited.add_edge(victim, "added", var="extra", size=1.0)
        else:
            edited.set_work(victim, edited.work(victim) * 2.0 + 1.0)
        result = incremental_reschedule(base, edited)
        feed(
            schedule_to_dict(result.schedule),
            schedule_to_dict(full_reschedule(base, edited)),
            result.n_dirty,
            result.fallback,
        )
        counts["edits"] += 1

        a, b = rng.sample(graph.task_names, 2)
        plain = get_scheduler("hlfet").schedule(graph, machine)
        feed(
            schedule_to_dict(move_task(plain, a, rng.randrange(8)).schedule),
            schedule_to_dict(swap_tasks(plain, a, b).schedule),
        )
        counts["hand_edits"] += 1

    for profile in PROFILES:
        for seed in range(10):
            graph = random_layered(30 + seed, 4, seed=100 + seed)
            plan = get_scheduler("mh").schedule(graph, machine)
            scenario = seeded_scenario(seed, machine, plan.makespan(), profile)
            result = reactive_execute(plan, scenario)
            feed(
                [schedule_to_dict(p) for p in result.plans],
                [
                    (sorted(t.runs, key=repr), sorted(t.killed_runs, key=repr))
                    for t in result.traces
                ],
                [(r.trigger, sorted(r.pinned), r.n_remapped) for r in result.rounds],
            )
            counts["reactive"] += 1
            counts["doomed"] += any(t.killed_runs for t in result.traces)

    return f"{digest.hexdigest()[:16]} {json.dumps(counts, sort_keys=True)}"


def reloaded_machine(family: str, n: int, params: MachineParams) -> TargetMachine:
    return TargetMachine.from_dict(make_machine(family, n, params).to_dict())


def main() -> None:
    print(sweep())
    clear_compiled()
    print(sweep(reloaded_machine))


if __name__ == "__main__":
    main()
