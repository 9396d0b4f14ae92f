"""JSON (de)serialization of dataflow designs and task graphs.

Designs survive a full round trip — hierarchy, port maps, PITS programs,
and initial storage values (numpy arrays included) — so projects can be
saved and reloaded like Banger documents.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.errors import GraphError
from repro.graph.dataflow import DataflowGraph
from repro.graph.node import StorageNode, TaskNode
from repro.graph.taskgraph import TaskGraph, TaskSpec

FORMAT_VERSION = 1


def _encode_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__ndarray__" in value:
        return np.array(value["__ndarray__"], dtype=value.get("dtype", "float64"))
    return value


# --------------------------------------------------------------------- #
# canonical form + fingerprints (content addressing)
# --------------------------------------------------------------------- #
def _canonical_default(value: Any) -> Any:
    """JSON fallback for fingerprinting: encode numpy, repr the rest."""
    encoded = _encode_value(value)
    if encoded is value:
        return repr(value)
    return encoded


def canonical_json(doc: Any) -> str:
    """A deterministic JSON rendering of ``doc``: sorted mapping keys, no
    whitespace, stable float repr.  Two structurally equal documents always
    produce the same string, in any process, on any platform."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=_canonical_default
    )


def fingerprint(doc: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` — the cache key material
    used by :class:`repro.sched.service.ScheduleService`."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def taskgraph_fingerprint(tg: TaskGraph) -> str:
    """Stable content hash of a task graph.

    Any semantic mutation — task set, insertion order (which schedulers'
    tie-breaks observe), weights, programs, edges, sizes, graph-level
    bindings — changes the hash; serialization round trips preserve it.
    """
    return fingerprint(taskgraph_to_dict(tg))


def dataflow_fingerprint(graph: DataflowGraph) -> str:
    """Stable content hash of a hierarchical design document."""
    return fingerprint(dataflow_to_dict(graph))


# --------------------------------------------------------------------- #
# DataflowGraph
# --------------------------------------------------------------------- #
def dataflow_to_dict(graph: DataflowGraph) -> dict[str, Any]:
    """Pure-dict form of a (possibly hierarchical) design."""
    nodes = []
    for node in graph.nodes:
        if isinstance(node, StorageNode):
            nodes.append(
                {
                    "kind": "storage",
                    "name": node.name,
                    "data": node.data,
                    "size": node.size,
                    "initial": _encode_value(node.initial),
                    "meta": node.meta,
                }
            )
        else:
            entry: dict[str, Any] = {
                "kind": "composite" if node.is_composite else "task",
                "name": node.name,
                "label": node.label,
                "work": node.work,
                "program": node.program,
                "meta": node.meta,
            }
            if node.is_composite:
                entry["subgraph"] = dataflow_to_dict(graph.subgraph(node.name))
            nodes.append(entry)
    return {
        "format": FORMAT_VERSION,
        "type": "dataflow",
        "name": graph.name,
        "inputs": graph.inputs,
        "outputs": graph.outputs,
        "nodes": nodes,
        "arcs": [
            {"src": a.src, "dst": a.dst, "var": a.var, "size": a.size}
            for a in graph.arcs
        ],
    }


def dataflow_from_dict(data: dict[str, Any]) -> DataflowGraph:
    if data.get("type") != "dataflow":
        raise GraphError(f"not a dataflow document (type={data.get('type')!r})")
    g = DataflowGraph(
        data.get("name", "design"),
        inputs=data.get("inputs") or {},
        outputs=data.get("outputs") or {},
    )
    for entry in data.get("nodes", []):
        kind = entry.get("kind")
        if kind == "storage":
            g.add_storage(
                entry["name"],
                data=entry.get("data", ""),
                size=entry.get("size", 1.0),
                initial=_decode_value(entry.get("initial")),
                **(entry.get("meta") or {}),
            )
        elif kind == "task":
            _add_task(g, entry)
        elif kind == "composite":
            sub = dataflow_from_dict(entry["subgraph"])
            g.add_composite(entry["name"], sub, label=entry.get("label", ""),
                            **(entry.get("meta") or {}))
        else:
            raise GraphError(f"unknown node kind {kind!r} in document")
    for arc in data.get("arcs", []):
        g.connect(arc["src"], arc["dst"], arc.get("var", ""), arc.get("size"))
    return g


def _add_task(graph: DataflowGraph, entry: dict[str, Any]) -> TaskNode:
    return graph.add_task(
        entry["name"],
        label=entry.get("label", ""),
        work=entry.get("work", 1.0),
        program=entry.get("program"),
        **(entry.get("meta") or {}),
    )


def task_node_from_dict(entry: dict[str, Any]) -> TaskNode:
    """One ``task`` entry of a design document as its node, built and
    refused by the very call :func:`dataflow_from_dict` makes."""
    return _add_task(DataflowGraph(), entry)


def dataflow_to_json(graph: DataflowGraph, indent: int | None = 2) -> str:
    return json.dumps(dataflow_to_dict(graph), indent=indent)


def dataflow_from_json(text: str) -> DataflowGraph:
    return dataflow_from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# TaskGraph
# --------------------------------------------------------------------- #
def task_to_dict(spec: TaskSpec) -> dict[str, Any]:
    """One entry of a taskgraph document's ``tasks``."""
    return {
        "name": spec.name,
        "work": spec.work,
        "label": spec.label,
        "program": spec.program,
        "meta": spec.meta,
    }


def taskgraph_to_dict(tg: TaskGraph) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "type": "taskgraph",
        "name": tg.name,
        "tasks": [task_to_dict(t) for t in tg.tasks],
        "edges": [
            {"src": e.src, "dst": e.dst, "var": e.var, "size": e.size}
            for e in tg.edges
        ],
        "graph_inputs": tg.graph_inputs,
        "graph_outputs": tg.graph_outputs,
        "input_values": {k: _encode_value(v) for k, v in tg.input_values.items()},
        "input_sizes": tg.input_sizes,
        "output_sizes": tg.output_sizes,
    }


def taskgraph_from_dict(data: dict[str, Any]) -> TaskGraph:
    if data.get("type") != "taskgraph":
        raise GraphError(f"not a taskgraph document (type={data.get('type')!r})")
    tg = TaskGraph(data.get("name", "taskgraph"))
    for entry in data.get("tasks", []):
        tg.add_task(
            entry["name"],
            work=entry.get("work", 1.0),
            label=entry.get("label", ""),
            program=entry.get("program"),
            **(entry.get("meta") or {}),
        )
    for e in data.get("edges", []):
        tg.add_edge(e["src"], e["dst"], e.get("var", ""), e.get("size", 1.0))
    tg.graph_inputs = {k: list(v) for k, v in (data.get("graph_inputs") or {}).items()}
    tg.graph_outputs = dict(data.get("graph_outputs") or {})
    tg.input_values = {
        k: _decode_value(v) for k, v in (data.get("input_values") or {}).items()
    }
    tg.input_sizes = dict(data.get("input_sizes") or {})
    tg.output_sizes = dict(data.get("output_sizes") or {})
    return tg


def taskgraph_to_json(tg: TaskGraph, indent: int | None = 2) -> str:
    return json.dumps(taskgraph_to_dict(tg), indent=indent)


def taskgraph_from_json(text: str) -> TaskGraph:
    return taskgraph_from_dict(json.loads(text))
