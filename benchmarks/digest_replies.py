"""One digest over the reply bytes of an editing session, memo or not.

Run it under two checkouts' ``src/`` and compare the line it prints: equal
digests mean a change to the request path changed no reply byte.

    PYTHONPATH=src python benchmarks/digest_replies.py

The sample is ``edit_loop``'s full-size design (600 tasks, hypercube-64) at
seeds 1 and 11.  Per seed, the unedited design is scheduled once and its
schedule is every later body's ``base_schedule``; then come 40 work edits
(victim ``i * 389 mod n``, work doubled plus one, one task at a time),
the unchanged body, and a label edit of task 5: 84 bodies, encoded
as the client encodes them (``json.dumps(sort_keys=True)``).  Each body is
served by ``workers.serve`` through one ``RequestMemo`` per seed, as a
worker serves it, and again with no memo; the two replies must be the same
bytes, and the digest is the sha256 of the memo's replies in order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams
from repro.server.memo import RequestMemo
from repro.server.ops import execute
from repro.server.workers import serve

#: ``edit_loop``'s full-size design and machine.
TASKS, LAYERS, EDGE_PROB, PROCS = 600, 20, 0.03, 64
PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0,
                       process_startup=0.05, hop_latency=0.1)
SEEDS = (1, 11)
EDITS, STRIDE, LABELLED = 40, 389, 5


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _tasks(design: dict[str, Any]) -> list[dict[str, Any]]:
    return [node for node in design["nodes"] if node["kind"] == "task"]


def _reply(body: bytes, memo: RequestMemo | None) -> bytes:
    outcome = serve(execute, "schedule", body, memo)
    assert outcome[0] == "ok", outcome
    return outcome[1]["body"]


def bodies(seed: int, memo: RequestMemo) -> Iterator[bytes]:
    """One seed's 42 edit bodies; the unedited design is served through
    ``memo`` first, as the editing client's first request is."""
    graph = random_layered(TASKS, LAYERS, edge_prob=EDGE_PROB, seed=seed)
    doc = BangerProject("edit").set_design(as_dataflow(graph)).set_machine(
        "hypercube", PROCS, PARAMS).to_dict()
    payload: dict[str, Any] = {"project": doc, "scheduler": "mh"}
    payload["base_schedule"] = json.loads(_reply(_encode(payload), memo))["schedule"]
    tasks = _tasks(doc["design"])
    work = [task["work"] for task in tasks]
    for i in range(EDITS):
        victim = i * STRIDE % len(tasks)
        tasks[victim]["work"] = work[victim] * 2.0 + 1.0
        yield _encode(payload)
        tasks[victim]["work"] = work[victim]
    yield _encode(payload)
    tasks[LABELLED]["label"] = "edited"
    yield _encode(payload)


def main() -> None:
    digest = hashlib.sha256()
    for seed in SEEDS:
        memo = RequestMemo()
        for body in bodies(seed, memo):
            reply = _reply(body, memo)
            assert reply == _reply(body, None), f"seed {seed}: memo reply differs"
            digest.update(reply)
    print(digest.hexdigest()[:16])


if __name__ == "__main__":
    main()
