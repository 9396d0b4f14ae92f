"""Seeded input generation shared by the workloads.

Every function here is a pure function of its arguments: the same
``--seed`` builds byte-identical request bodies in any process (no
``hash()``, no wall clock, no iteration over sets).
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from typing import Any, Iterator

from repro.env.project import BangerProject
from repro.graph import generators
from repro.graph.generators import as_dataflow
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineParams

#: The cheap-communication machine the shipped examples use.
PARAMS = MachineParams(msg_startup=0.2, transmission_rate=20.0)

#: The edit loop's machine (the incremental benchmark's parameters).
EDIT_PARAMS = MachineParams(
    msg_startup=0.5, transmission_rate=5.0, process_startup=0.05, hop_latency=0.1
)


def encode(payload: dict[str, Any]) -> bytes:
    """A request body, encoded the way ``repro.client`` encodes one."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def task_nodes(design: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """Every primitive task node of a design document, depth first."""
    for node in design["nodes"]:
        if node["kind"] == "task":
            yield node
        elif node["kind"] == "composite":
            yield from task_nodes(node["subgraph"])


def project_doc(name: str, tg: TaskGraph, procs: int, params: MachineParams) -> dict[str, Any]:
    """``tg`` lifted to a drawn design on a hypercube, as a project document."""
    project = BangerProject(name).set_design(as_dataflow(tg))
    project.set_machine("hypercube", procs, params)
    return project.to_dict()


@contextmanager
def edited(doc: dict[str, Any], index: int, scale: float) -> Iterator[dict[str, Any]]:
    """``doc`` with one task node's work multiplied by ``scale``, then restored.

    Editing in place and encoding inside the ``with`` block avoids a deep
    copy per variant, which otherwise dominates set-up time.
    """
    nodes = list(task_nodes(doc["design"]))
    node = nodes[index % len(nodes)]
    work = node["work"]
    node["work"] = work * scale
    try:
        yield doc
    finally:
        node["work"] = work


def generated_graph(family: str, args: tuple, seed: int) -> TaskGraph:
    """One task graph of ``family``; its content depends on ``seed``.

    ``random_layered`` takes the seed itself; the structured families have
    one shape per size, so their task weights are re-drawn instead — either
    way no two seeds share a content hash.
    """
    if family == "random_layered":
        n, layers, edge_prob = args
        return generators.random_layered(n, layers, edge_prob=edge_prob, seed=seed)
    tg = getattr(generators, family)(*args)
    rng = random.Random(seed)
    for name in tg.task_names:
        tg.set_work(name, rng.uniform(1.0, 10.0))
    return tg
