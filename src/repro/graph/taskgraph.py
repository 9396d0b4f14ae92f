"""The scheduling intermediate representation: a flat, weighted task DAG.

Flattening a hierarchical PITL design (see :mod:`repro.graph.hierarchy`)
produces a :class:`TaskGraph`: only primitive tasks remain, storage nodes are
elided, and each edge carries the variable name and size of the datum that
must be communicated if its endpoints land on different processors.

This is the structure every scheduler in :mod:`repro.sched` consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import CycleError, GraphError, check_finite
from repro.graph.node import DEFAULT_WORK


@dataclass(frozen=True)
class TaskEdge:
    """A precedence+communication edge of the flat task DAG."""

    src: str
    dst: str
    var: str = ""
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise GraphError(f"self-loop edge on {self.src!r}")
        if self.size < 0:
            raise GraphError(f"edge {self.src}->{self.dst}: negative size")
        check_finite(self.size, f"edge {self.src}->{self.dst}: size", GraphError)


@dataclass
class TaskSpec:
    """A schedulable task: its weight, optional PITS program, and bindings.

    ``inputs`` / ``outputs`` record, per variable, where the datum comes from
    or goes to: another task, a graph input, or a graph output.  They are
    filled in by flattening and used by the executor and code generators.
    """

    name: str
    work: float = DEFAULT_WORK
    label: str = ""
    program: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)


class TaskGraph:
    """A weighted DAG of primitive tasks (the input to scheduling).

    Parameters
    ----------
    name:
        Graph name, carried over from the design.
    """

    def __init__(self, name: str = "taskgraph"):
        self.name = name
        self._tasks: dict[str, TaskSpec] = {}
        self._succ: dict[str, list[TaskEdge]] = {}
        self._pred: dict[str, list[TaskEdge]] = {}
        self._edges: list[TaskEdge] = []
        #: graph-level inputs: variable -> (consumer task names)
        self.graph_inputs: dict[str, list[str]] = {}
        #: graph-level outputs: variable -> producer task name
        self.graph_outputs: dict[str, str] = {}
        #: initial values for graph inputs (from storage nodes), if any
        self.input_values: dict[str, Any] = {}
        #: sizes (abstract units) of graph-level inputs and outputs
        self.input_sizes: dict[str, float] = {}
        self.output_sizes: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(
        self,
        name: str,
        work: float = DEFAULT_WORK,
        label: str = "",
        program: str | None = None,
        **meta: Any,
    ) -> TaskSpec:
        if name in self._tasks:
            raise GraphError(f"duplicate task {name!r} in task graph {self.name!r}")
        if work < 0:
            raise GraphError(f"task {name!r}: work must be >= 0")
        check_finite(work, f"task {name!r}: work", GraphError)
        spec = TaskSpec(name, work=work, label=label, program=program, meta=meta)
        self._tasks[name] = spec
        self._succ[name] = []
        self._pred[name] = []
        return spec

    def add_edge(self, src: str, dst: str, var: str = "", size: float = 1.0) -> TaskEdge:
        """Add ``src -> dst`` carrying ``var``; the duplicate check scans only
        ``src``'s outgoing edges, so the cost is O(out-degree of ``src``)."""
        for endpoint in (src, dst):
            if endpoint not in self._tasks:
                raise GraphError(f"unknown task {endpoint!r} in task graph {self.name!r}")
        edge = TaskEdge(src, dst, var, size)
        outgoing = self._succ[src]
        for e in outgoing:
            if e.dst == dst and e.var == var:
                raise GraphError(f"duplicate edge {src}->{dst} ({var!r})")
        outgoing.append(edge)
        self._pred[dst].append(edge)
        self._edges.append(edge)
        return edge

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    def task(self, name: str) -> TaskSpec:
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r} in task graph {self.name!r}") from None

    @property
    def task_names(self) -> list[str]:
        return list(self._tasks)

    @property
    def tasks(self) -> list[TaskSpec]:
        return list(self._tasks.values())

    @property
    def edges(self) -> list[TaskEdge]:
        return list(self._edges)

    def work(self, name: str) -> float:
        return self.task(name).work

    def in_edges(self, name: str) -> list[TaskEdge]:
        self.task(name)
        return list(self._pred[name])

    def out_edges(self, name: str) -> list[TaskEdge]:
        self.task(name)
        return list(self._succ[name])

    def set_work(self, name: str, work: float) -> None:
        if work < 0:
            raise GraphError(f"task {name!r}: work must be >= 0")
        check_finite(work, f"task {name!r}: work", GraphError)
        self.task(name).work = work

    def successors(self, name: str) -> list[str]:
        self.task(name)
        return [e.dst for e in self._succ[name]]

    def predecessors(self, name: str) -> list[str]:
        self.task(name)
        return [e.src for e in self._pred[name]]

    def edge(self, src: str, dst: str) -> TaskEdge:
        """The (first) edge ``src -> dst``; raises if absent."""
        for e in self._succ.get(src, ()):
            if e.dst == dst:
                return e
        raise GraphError(f"no edge {src}->{dst} in task graph {self.name!r}")

    def edges_between(self, src: str, dst: str) -> list[TaskEdge]:
        return [e for e in self._succ.get(src, ()) if e.dst == dst]

    def comm_size(self, src: str, dst: str) -> float:
        """Total data units flowing ``src -> dst`` (sum over variables)."""
        return sum(e.size for e in self.edges_between(src, dst))

    def entry_tasks(self) -> list[str]:
        return [t for t in self._tasks if not self._pred[t]]

    def exit_tasks(self) -> list[str]:
        return [t for t in self._tasks if not self._succ[t]]

    def total_work(self) -> float:
        """Sum of all task weights = serial execution operation count."""
        return sum(t.work for t in self._tasks.values())

    def total_comm(self) -> float:
        """Sum of all edge sizes (upper bound on data moved)."""
        return sum(e.size for e in self._edges)

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[str]:
        """Deterministic Kahn sort; raises :class:`CycleError` on cycles."""
        indeg = {t: len(self._pred[t]) for t in self._tasks}
        ready = deque(t for t in self._tasks if indeg[t] == 0)
        order: list[str] = []
        while ready:
            t = ready.popleft()
            order.append(t)
            for e in self._succ[t]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        if len(order) != len(self._tasks):
            raise CycleError(f"task graph {self.name!r} contains a cycle")
        return order

    def same_structure(self, other: "TaskGraph") -> bool:
        """Whether ``other`` has these tasks in this order and, per task,
        these in-edges and out-edges in this order.  Edge sizes must match
        type for type: ``1``, ``1.0`` and ``true`` make equal edges, but a
        message quotes its edge's size as it is."""
        if list(self._tasks) != list(other._tasks):
            return False
        for name, edges in self._pred.items():
            theirs = other._pred[name]
            if edges != theirs or any(
                type(a.size) is not type(b.size) for a, b in zip(edges, theirs)
            ):
                return False
        return all(edges == other._succ[name] for name, edges in self._succ.items())

    def shares_edges(self, other: "TaskGraph") -> bool:
        """Whether ``other`` holds this graph's very edge list, as a graph
        :meth:`replaced` from this one does (or from a graph that holds
        it), with the adjacency beside it.  Then it has these tasks in this
        order and this graph's :meth:`same_structure`, settled without
        comparing an edge: neither graph may be edited, and
        :meth:`replaced` keeps every name."""
        return self._edges is other._edges

    def respecified(self, other: "TaskGraph") -> list[str] | None:
        """The tasks whose spec here is not ``other``'s very object, when
        ``other`` :meth:`shares_edges` with this graph; ``None`` when it
        does not.  Every other task is ``other``'s, edges and all."""
        if not self.shares_edges(other):
            return None
        return [
            name
            for (name, spec), theirs in zip(self._tasks.items(), other._tasks.values())
            if spec is not theirs
        ]

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CycleError:
            return False

    def transitive_closure(self) -> dict[str, set[str]]:
        """``reach[u]`` = set of tasks reachable from ``u`` (u excluded)."""
        order = self.topological_order()
        reach: dict[str, set[str]] = {t: set() for t in self._tasks}
        for t in reversed(order):
            for e in self._succ[t]:
                reach[t].add(e.dst)
                reach[t] |= reach[e.dst]
        return reach

    def independent(self, a: str, b: str) -> bool:
        """True when no precedence path connects ``a`` and ``b``."""
        reach = self.transitive_closure()
        return b not in reach[a] and a not in reach[b]

    def content_hash(self) -> str:
        """Stable content-addressed fingerprint of this graph.

        Equal graphs (same tasks in the same insertion order, same weights,
        programs, edges, and graph-level bindings) hash identically across
        process restarts; any semantic mutation yields a new hash.  This is
        the graph half of the scheduling cache key used by
        :class:`repro.sched.service.ScheduleService`.
        """
        from repro.graph.serialize import taskgraph_fingerprint

        return taskgraph_fingerprint(self)

    def copy(self) -> "TaskGraph":
        import copy as _copy

        g = TaskGraph(self.name)
        for spec in self._tasks.values():
            g.add_task(spec.name, spec.work, spec.label, spec.program, **_copy.deepcopy(spec.meta))
        for e in self._edges:
            g.add_edge(e.src, e.dst, e.var, e.size)
        g.graph_inputs = {k: list(v) for k, v in self.graph_inputs.items()}
        g.graph_outputs = dict(self.graph_outputs)
        g.input_values = dict(self.input_values)
        g.input_sizes = dict(self.input_sizes)
        g.output_sizes = dict(self.output_sizes)
        return g

    def replaced(self, tasks: dict[str, TaskSpec]) -> "TaskGraph":
        """A new graph equal to this one but for ``tasks``, each spec put in
        place of the task of its name (names must exist here).

        The edge list and the adjacency are this graph's own objects, and
        the untouched specs are shared too, so neither graph may then be
        edited (:meth:`copy` is the graph to edit); the bindings are
        copied.  Costs what copying the task dict costs, not a rebuild.
        """
        for name in tasks:
            self.task(name)
        g = TaskGraph(self.name)
        g._tasks = {**self._tasks, **tasks}
        g._succ, g._pred, g._edges = self._succ, self._pred, self._edges
        g.graph_inputs = {k: list(v) for k, v in self.graph_inputs.items()}
        g.graph_outputs = dict(self.graph_outputs)
        g.input_values = dict(self.input_values)
        g.input_sizes = dict(self.input_sizes)
        g.output_sizes = dict(self.output_sizes)
        return g

    def __repr__(self) -> str:
        return f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, edges={len(self._edges)})"
