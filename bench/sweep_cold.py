"""``sweep_cold``: Figure 3's speedup prediction on designs never seen before.

*Why this workload:* each ``/sweep`` request runs four list schedulers on
four machine sizes — sixteen scheduler runs per inflated project — so the
scheduling kernel, the scheduler loops and compiled topologies dominate and
the graph layer is a small share.  A kernel gain shows here; an inflate
gain should not.  Content is re-seeded for every request, so no cache
below the daemon can answer.
"""

from __future__ import annotations

import json
import random
from typing import Any

from repro.approx import approx_ge
from repro.env.project import BangerProject
from repro.machine.machine import make_machine
from repro.sched._reference import ReferenceMHScheduler

from bench import inputs
from bench.loadgen import Op, Record
from bench.spec import Sizes

#: Designs whose ``mh`` makespans are recomputed with the frozen reference.
REFERENCE_SAMPLES = 2

#: Requests pre-built per second of measurement (the loop ends early,
#: reporting fewer samples, if the daemon ever outruns this).
PREBUILT_PER_SECOND = 4


class SweepCold:
    name = "sweep_cold"
    connections = 2
    first_index = 0

    def __init__(self, seed: int, sizes: Sizes, seconds: float):
        self.seed = seed
        self.sizes = sizes
        self.group = len(sizes.sweep_designs)
        laps = -(-int(seconds * PREBUILT_PER_SECOND) // self.group) + 1
        self.ops = [self.build(i) for i in range(laps * self.group)]

    def build(self, index: int) -> Op:
        family, args = self.sizes.sweep_designs[index % self.group]
        tg = inputs.generated_graph(family, args, self.seed * 100003 + index)
        doc = inputs.project_doc(f"sweep{index}", tg, 8, inputs.PARAMS)
        body = inputs.encode({
            "project": doc,
            "schedulers": list(self.sizes.sweep_schedulers),
            "proc_counts": list(self.sizes.sweep_proc_counts),
        })
        return Op("sweep", "POST", "/sweep", body,
                  ctx={"tasks": len(tg), "edges": len(tg.edges)})

    # ------------------------------------------------------------------ #
    def warm(self, daemon: Any) -> None:
        """Nothing to warm: every request is new to every cache."""

    def make_op(self, index: int) -> Op | None:
        return self.ops[index] if index < len(self.ops) else None

    def replay_warm_ops(self) -> list[Op]:
        return []

    def micro_doc(self) -> dict[str, Any]:
        return json.loads(self.ops[0].body)["project"]

    def input_sizes(self) -> dict[str, Any]:
        lap = self.ops[: self.group]
        return {
            "tasks": [op.ctx["tasks"] for op in lap],
            "edges": [op.ctx["edges"] for op in lap],
            "body_bytes": [len(op.body) for op in lap],
        }

    # ------------------------------------------------------------------ #
    def verify(self, records: list[Record]) -> list[str]:
        rng = random.Random(f"sweep-reference:{self.seed}")
        sampled = set(
            rng.sample(range(len(records)), min(REFERENCE_SAMPLES, len(records)))
        )
        failures = []
        for pos, record in enumerate(records):
            problem = self._check(record, reference=pos in sampled)
            if problem:
                failures.append(f"sweep {record.index}: {problem}")
        return failures

    def _check(self, record: Record, reference: bool) -> str | None:
        if record.status != 200:
            return f"status {record.status}: {record.raw[:200]!r}"
        try:
            doc = json.loads(record.raw)
            if doc.get("type") != "banger-sweep":
                return f"type {doc.get('type')!r}"
            if sorted(doc["schedulers"]) != sorted(self.sizes.sweep_schedulers):
                return f"schedulers {sorted(doc['schedulers'])}"
            for name, report in doc["schedulers"].items():
                sizes = [p["n_procs"] for p in report["points"]]
                if sizes != list(self.sizes.sweep_proc_counts):
                    return f"{name}: points for {sizes}"
                for point in report["points"]:
                    if not approx_ge(report["serial_time"], point["makespan"]):
                        return (f"{name} on {point['n_procs']} procs: makespan "
                                f"{point['makespan']} exceeds serial time")
            if reference:
                return self._check_reference(record, doc["schedulers"]["mh"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed reply: {exc!r}"
        return None

    def _check_reference(self, record: Record, report: dict[str, Any]) -> str | None:
        project = BangerProject.from_dict(json.loads(record.op.body)["project"])
        flat = project.flat()
        for point in report["points"]:
            machine = make_machine("hypercube", point["n_procs"], inputs.PARAMS)
            expected = ReferenceMHScheduler().schedule(flat, machine).makespan()
            if point["makespan"] != expected:
                return (f"mh on {point['n_procs']} procs: makespan "
                        f"{point['makespan']} but the frozen reference "
                        f"says {expected}")
        return None
