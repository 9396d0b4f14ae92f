"""Single-level PITL dataflow graphs.

A :class:`DataflowGraph` holds task, composite, and storage nodes connected
by variable-labelled arcs — exactly one level of the hierarchical drawing of
the paper's Figure 1.  Composite nodes carry a nested ``DataflowGraph`` (see
:mod:`repro.graph.hierarchy` for expansion and flattening).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.errors import CycleError, GraphError, ValidationError
from repro.graph.node import (
    DEFAULT_ARC_SIZE,
    DEFAULT_WORK,
    Arc,
    NodeKind,
    StorageNode,
    TaskNode,
)


class DataflowGraph:
    """A directed graph of tasks, composites, and storage nodes.

    Nodes are addressed by name.  Arcs may connect any pair of distinct
    nodes; the canonical dataflow idiom is ``task -> storage -> task``, but
    direct ``task -> task`` control arcs are also legal (the paper allows
    precedence "created by either control flow or dataflow dependencies").

    Parameters
    ----------
    name:
        Name of the design (or of the composite node this graph refines).
    inputs / outputs:
        Port maps for hierarchical use: ``inputs`` maps each incoming
        variable to the internal node — or list of nodes — that receives it
        (Figure 1's ``A`` fans out to several update tasks); ``outputs``
        maps each outgoing variable to the single internal node producing
        it.  Ignored for a top-level design.
    """

    def __init__(
        self,
        name: str = "design",
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
    ):
        self.name = name
        self._nodes: dict[str, TaskNode | StorageNode] = {}
        self._arcs: list[Arc] = []
        self._succ: dict[str, list[Arc]] = {}
        self._pred: dict[str, list[Arc]] = {}
        self._subgraphs: dict[str, "DataflowGraph"] = {}
        self.inputs: dict[str, str] = dict(inputs or {})
        self.outputs: dict[str, str] = dict(outputs or {})

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: TaskNode | StorageNode) -> TaskNode | StorageNode:
        """Insert a prebuilt node object; names must be unique."""
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r} in graph {self.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = []
        self._pred[node.name] = []
        return node

    def add_task(
        self,
        name: str,
        label: str = "",
        work: float = DEFAULT_WORK,
        program: str | None = None,
        **meta: Any,
    ) -> TaskNode:
        """Add a primitive task (an oval node)."""
        return self.add_node(  # type: ignore[return-value]
            TaskNode(name, label=label, work=work, program=program, meta=meta)
        )

    def add_composite(
        self,
        name: str,
        subgraph: "DataflowGraph",
        label: str = "",
        **meta: Any,
    ) -> TaskNode:
        """Add a bold (decomposable) node refined by ``subgraph``."""
        node = TaskNode(name, label=label, kind=NodeKind.COMPOSITE, meta=meta)
        self.add_node(node)
        self._subgraphs[name] = subgraph
        return node

    def add_storage(
        self,
        name: str,
        data: str = "",
        size: float = DEFAULT_ARC_SIZE,
        initial: Any = None,
        **meta: Any,
    ) -> StorageNode:
        """Add a storage rectangle holding variable ``data``."""
        return self.add_node(  # type: ignore[return-value]
            StorageNode(name, data=data, size=size, initial=initial, meta=meta)
        )

    def connect(
        self, src: str, dst: str, var: str = "", size: float | None = None
    ) -> Arc:
        """Draw an arc ``src -> dst`` labelled with variable ``var``.

        When ``var`` is omitted and either endpoint is a storage node, the
        label defaults to that storage node's datum; when ``size`` is
        omitted it defaults to the storage node's size (or 1.0).

        Costs O(out-degree of ``src``): a duplicate ``(src, dst, var)`` can
        only sit among ``src``'s outgoing arcs, so only those are checked.
        """
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise GraphError(f"unknown node {endpoint!r} in graph {self.name!r}")
        storage = None
        for endpoint in (src, dst):
            node = self._nodes[endpoint]
            if isinstance(node, StorageNode):
                storage = node
                break
        if not var and storage is not None:
            var = storage.data
        if size is None:
            size = storage.size if storage is not None else DEFAULT_ARC_SIZE
        arc = Arc(src, dst, var=var, size=size)
        if any(a.dst == dst and a.var == var for a in self._succ[src]):
            raise GraphError(
                f"duplicate arc {src}->{dst} for variable {var!r} in graph {self.name!r}"
            )
        self._arcs.append(arc)
        self._succ[src].append(arc)
        self._pred[dst].append(arc)
        return arc

    def remove_node(self, name: str) -> None:
        """Delete a node and every arc touching it."""
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        del self._nodes[name]
        self._subgraphs.pop(name, None)
        self._arcs = [a for a in self._arcs if name not in (a.src, a.dst)]
        for arc in self._succ.pop(name):
            self._pred[arc.dst].remove(arc)
        for arc in self._pred.pop(name):
            self._succ[arc.src].remove(arc)

    def remove_arc(self, src: str, dst: str, var: str | None = None) -> None:
        """Delete the arc(s) ``src -> dst`` (all labels, or just ``var``)."""

        def doomed(a: Arc) -> bool:
            return a.src == src and a.dst == dst and (var is None or a.var == var)

        if not any(doomed(a) for a in self._arcs):
            raise GraphError(f"no arc {src}->{dst}" + (f" for {var!r}" if var else ""))
        self._arcs = [a for a in self._arcs if not doomed(a)]
        self._succ[src] = [a for a in self._succ[src] if not doomed(a)]
        self._pred[dst] = [a for a in self._pred[dst] if not doomed(a)]

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TaskNode | StorageNode]:
        return iter(self._nodes.values())

    def node(self, name: str) -> TaskNode | StorageNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r} in graph {self.name!r}") from None

    def subgraph(self, name: str) -> "DataflowGraph":
        node = self.node(name)
        if not isinstance(node, TaskNode) or not node.is_composite:
            raise GraphError(f"node {name!r} is not composite")
        return self._subgraphs[name]

    @property
    def nodes(self) -> list[TaskNode | StorageNode]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def arcs(self) -> list[Arc]:
        return list(self._arcs)

    @property
    def tasks(self) -> list[TaskNode]:
        return [n for n in self._nodes.values() if isinstance(n, TaskNode)]

    @property
    def storages(self) -> list[StorageNode]:
        return [n for n in self._nodes.values() if isinstance(n, StorageNode)]

    @property
    def composites(self) -> list[TaskNode]:
        return [n for n in self.tasks if n.is_composite]

    def successors(self, name: str) -> list[str]:
        self.node(name)
        return [a.dst for a in self._succ[name]]

    def predecessors(self, name: str) -> list[str]:
        self.node(name)
        return [a.src for a in self._pred[name]]

    def out_arcs(self, name: str) -> list[Arc]:
        self.node(name)
        return list(self._succ[name])

    def in_arcs(self, name: str) -> list[Arc]:
        self.node(name)
        return list(self._pred[name])

    def sources(self) -> list[str]:
        """Nodes with no predecessors (program inputs / entry tasks)."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> list[str]:
        """Nodes with no successors (program outputs / exit tasks)."""
        return [n for n in self._nodes if not self._succ[n]]

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[str]:
        """Kahn topological sort; raises :class:`CycleError` on cycles.

        Ties are broken by insertion order so the result is deterministic.
        """
        indeg = {n: len(self._pred[n]) for n in self._nodes}
        ready = deque(n for n in self._nodes if indeg[n] == 0)
        order: list[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for arc in self._succ[n]:
                indeg[arc.dst] -= 1
                if indeg[arc.dst] == 0:
                    ready.append(arc.dst)
        if len(order) != len(self._nodes):
            cyc = self.find_cycle()
            raise CycleError(
                f"graph {self.name!r} contains a cycle: {' -> '.join(cyc)}", cyc
            )
        return order

    def find_cycle(self) -> list[str]:
        """Return one cycle as a node-name list (empty if acyclic)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(self._nodes, WHITE)
        parent: dict[str, str] = {}

        for root in self._nodes:
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [(root, iter(self.successors(root)))]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(self.successors(nxt))))
                        advanced = True
                        break
                    if color[nxt] == GREY:  # back edge: reconstruct cycle
                        cycle = [nxt]
                        cur = node
                        while cur != nxt:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.append(nxt)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return []

    def is_acyclic(self) -> bool:
        return not self.find_cycle()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def problems(self, recurse: bool = True) -> list[str]:
        """Collect every structural problem (empty list == valid).

        This powers the environment's instant feedback: it never raises, it
        reports *all* issues at once, and each message names the culprit.
        The checks themselves live in :mod:`repro.lint.design` (rules
        ``DF101``–``DF110``); this method is the legacy string view.
        """
        from repro.lint.design import design_diagnostics

        return [d.message for d in design_diagnostics(self, recurse=recurse)]

    def validate(self, recurse: bool = True) -> None:
        """Raise :class:`ValidationError` listing all problems, if any."""
        issues = self.problems(recurse=recurse)
        if issues:
            raise ValidationError(
                f"graph {self.name!r} is invalid ({len(issues)} problem(s)): "
                + "; ".join(issues),
                issues,
            )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def copy(self) -> "DataflowGraph":
        """Deep copy (subgraphs included)."""
        import copy as _copy

        g = DataflowGraph(self.name, inputs=self.inputs, outputs=self.outputs)
        for node in self._nodes.values():
            g.add_node(_copy.deepcopy(node))
        for name, sub in self._subgraphs.items():
            g._subgraphs[name] = sub.copy()
        for arc in self._arcs:
            g._arcs.append(arc)
            g._succ[arc.src].append(arc)
            g._pred[arc.dst].append(arc)
        return g

    def replaced(
        self,
        nodes: dict[str, TaskNode] | None = None,
        subgraphs: dict[str, "DataflowGraph"] | None = None,
    ) -> "DataflowGraph":
        """A new graph equal to this one but for the named ``nodes`` and
        composite ``subgraphs``, each put in place of the one of its name.

        Only fields may change this way, never structure: the caller keeps
        every name, kind and port, so the result needs no new validation.
        The arc list and the adjacency are this graph's own objects, and
        every other node and subgraph is shared with this graph too, so
        neither graph may then be edited (:meth:`copy` is the graph to
        edit).
        """
        g = DataflowGraph(self.name, inputs=self.inputs, outputs=self.outputs)
        g._nodes = {**self._nodes, **(nodes or {})}
        g._arcs, g._succ, g._pred = self._arcs, self._succ, self._pred
        g._subgraphs = {**self._subgraphs, **(subgraphs or {})}
        return g

    def __repr__(self) -> str:
        return (
            f"DataflowGraph({self.name!r}, nodes={len(self._nodes)}, "
            f"arcs={len(self._arcs)}, composites={len(self._subgraphs)})"
        )
