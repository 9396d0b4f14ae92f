"""``edit_loop``: one edit to a large design through the live daemon.

*Why this workload:* instant feedback on an edit is the paper's core
promise and the row no earlier benchmark had.  One connection re-times a
~1000-task design on a 64-processor hypercube after each single-node work
edit, posting the whole project plus the previous schedule.  Parsing,
inflating and flattening the graph, the coalesce key, worker IPC and
serialization do nearly all the work; the scheduling kernel almost none.
"""

from __future__ import annotations

import json
import random
from typing import Any

from repro.errors import ReproError
from repro.graph.serialize import canonical_json
from repro.sched.incremental import full_reschedule
from repro.sched.schedule import Schedule
from repro.sched.serialize import schedule_from_dict, schedule_to_dict
from repro.sched.validate import schedule_problems

from bench import inputs
from bench.loadgen import Op, Record
from bench.spec import Sizes

#: Victim of edit ``i`` is task ``i * VICTIM_STRIDE mod n`` (coprime to n).
VICTIM_STRIDE = 389

#: Edits whose answer is compared with an in-process ``full_reschedule``.
IDENTITY_SAMPLES = 3


class EditLoop:
    name = "edit_loop"
    connections = 1
    group = 1
    first_index = 0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        tg = inputs.generators.random_layered(
            sizes.edit_tasks, sizes.edit_layers,
            edge_prob=sizes.edit_edge_prob, seed=seed,
        )
        self.n_tasks, self.n_edges = len(tg), len(tg.edges)
        self.doc = inputs.project_doc("edit", tg, sizes.edit_procs, inputs.EDIT_PARAMS)
        self.payload: dict[str, Any] = {"project": self.doc, "scheduler": "mh"}
        self._nodes = list(inputs.task_nodes(self.doc["design"]))
        self._work = [node["work"] for node in self._nodes]
        self._edited: int | None = None
        self.base_doc: dict[str, Any] | None = None
        self.body_bytes = 0

    # ------------------------------------------------------------------ #
    def warm(self, daemon: Any) -> None:
        """Schedule the unedited design once; its answer is every edit's base."""
        reply = daemon.client.post("/schedule", self.payload)
        self.base_doc = reply["schedule"]
        self.payload["base_schedule"] = self.base_doc

    def edited_work(self, index: int) -> tuple[int, float]:
        victim = (index * VICTIM_STRIDE) % len(self._nodes)
        return victim, self._work[victim] * 2.0 + 1.0

    def make_op(self, index: int) -> Op:
        # One shared payload, edited in place: exactly one node differs
        # from the base design in every request.
        if self._edited is not None:
            self._nodes[self._edited]["work"] = self._work[self._edited]
        victim, work = self.edited_work(index)
        self._nodes[victim]["work"] = work
        self._edited = victim
        body = inputs.encode(self.payload)
        self.body_bytes = len(body)
        return Op("edit", "POST", "/schedule", body, ctx=index)

    def replay_warm_ops(self) -> list[Op]:
        return []

    def micro_doc(self) -> dict[str, Any]:
        return self.doc

    def input_sizes(self) -> dict[str, Any]:
        return {"tasks": self.n_tasks, "edges": self.n_edges,
                "body_bytes": self.body_bytes}

    # ------------------------------------------------------------------ #
    def verify(self, records: list[Record]) -> list[str]:
        base = schedule_from_dict(self.base_doc)
        rng = random.Random(f"edit-identity:{self.seed}")
        sampled = set(
            rng.sample(range(len(records)), min(IDENTITY_SAMPLES, len(records)))
        )
        failures = []
        for pos, record in enumerate(records):
            problem = self._check(record, base, identity=pos in sampled)
            if problem:
                failures.append(f"edit {record.index}: {problem}")
        return failures

    def _check(self, record: Record, base: Schedule, identity: bool) -> str | None:
        if record.status != 200:
            return f"status {record.status}: {record.raw[:200]!r}"
        try:
            doc = json.loads(record.raw)
            if doc.get("type") != "banger-schedule":
                return f"type {doc.get('type')!r}"
            if doc["incremental"]["fallback"]:
                return f"fell back ({doc['incremental']['fallback']})"
            problems = schedule_problems(schedule_from_dict(doc["schedule"]))
            if problems:
                return f"infeasible schedule: {problems[0]}"
            if identity:
                victim, work = self.edited_work(record.index)
                edited = base.graph.copy()
                edited.set_work(self._nodes[victim]["name"], work)
                expected = schedule_to_dict(full_reschedule(base, edited))
                if canonical_json(doc["schedule"]) != canonical_json(expected):
                    return "schedule differs from the full_reschedule reference"
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return f"malformed reply: {exc!r}"
        return None
