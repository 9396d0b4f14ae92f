"""Hierarchical expansion and flattening of PITL designs.

The paper's Figure 1 shows a two-level design: bold nodes of the top-level
graph expand into lower-level dataflow graphs.  Scheduling operates on the
fully expanded, storage-elided task DAG.  This module provides:

* :func:`expand` — replace every composite node by its subgraph, recursively,
  yielding a single-level :class:`~repro.graph.dataflow.DataflowGraph`;
* :func:`flatten` — expand and then elide storage nodes, yielding the
  :class:`~repro.graph.taskgraph.TaskGraph` scheduling IR;
* :func:`depth` — hierarchy depth of a design.

Expanded node names are namespaced ``composite.child`` so provenance stays
readable in Gantt charts.
"""

from __future__ import annotations

from repro.errors import GraphError
from repro.graph.dataflow import DataflowGraph
from repro.graph.node import NodeKind, TaskNode
from repro.graph.taskgraph import TaskGraph

#: Separator between a composite node's name and its children's names.
SCOPE_SEP = "."


def depth(graph: DataflowGraph) -> int:
    """Hierarchy depth: 1 for a flat design, 2 for Figure 1, and so on."""
    best = 1
    for comp in graph.composites:
        best = max(best, 1 + depth(graph.subgraph(comp.name)))
    return best


def count_primitive_tasks(graph: DataflowGraph) -> int:
    """Number of primitive tasks after full expansion."""
    n = 0
    for node in graph.tasks:
        if node.is_composite:
            n += count_primitive_tasks(graph.subgraph(node.name))
        else:
            n += 1
    return n


def expand(graph: DataflowGraph) -> DataflowGraph:
    """Return a single-level copy of ``graph`` with composites inlined.

    For each composite node ``C`` with subgraph ``S``:

    * every node ``n`` of ``S`` is copied in as ``C.n``;
    * an incoming arc ``u -> C`` carrying variable ``v`` is rerouted to
      ``u -> C.S.inputs[v]``;
    * an outgoing arc ``C -> w`` carrying ``v`` is rerouted to
      ``C.S.outputs[v] -> w``.

    The result is always an independent deep copy (one ``deepcopy`` per
    node), even for a design with nothing to inline; :func:`flatten` only
    reads the single-level view and so skips that copy.

    Raises :class:`GraphError` when an arc's variable has no matching port
    (run :meth:`DataflowGraph.validate` first for a full problem list).
    """
    return _single_level(graph).copy()


def _single_level(graph: DataflowGraph) -> DataflowGraph:
    """Read-only single-level view: ``graph`` itself when it has no
    composites, otherwise a new graph that still shares node objects and
    ``meta`` values with ``graph`` — callers must not mutate it."""
    # Expand one level at a time until no composites remain; this keeps the
    # arc-rerouting logic simple even for deeply nested designs.
    work = graph
    guard = 0
    while work.composites:
        guard += 1
        if guard > 64:
            raise GraphError(f"graph {graph.name!r}: hierarchy deeper than 64 levels")
        work = _expand_once(work)
    return work


def _expand_once(graph: DataflowGraph) -> DataflowGraph:
    """Inline the composites of the top level only (children may remain)."""
    import copy as _copy

    out = DataflowGraph(graph.name, inputs=graph.inputs, outputs=graph.outputs)

    # 1. carry every non-composite node over unchanged (shared, not copied)
    for node in graph.nodes:
        if isinstance(node, TaskNode) and node.is_composite:
            continue
        out.add_node(node)

    # 2. splice in each composite's subgraph under a namespace; the renamed
    # nodes are shallow clones with a fresh ``meta`` dict
    for comp in graph.composites:
        sub = graph.subgraph(comp.name)
        prefix = comp.name + SCOPE_SEP
        for node in sub.nodes:
            clone = _copy.copy(node)
            clone.name = prefix + node.name
            clone.meta = dict(node.meta)
            out.add_node(clone)
            if isinstance(node, TaskNode) and node.is_composite:
                # keep the nested subgraph attached, with internal names as-is
                out._subgraphs[clone.name] = sub.subgraph(node.name)
        for arc in sub.arcs:
            out.connect(prefix + arc.src, prefix + arc.dst, arc.var, arc.size)

    # 3. copy / reroute top-level arcs; an input port may fan out to
    # several internal nodes (Figure 1's A feeds every first-step task)
    comp_names = {c.name for c in graph.composites}
    for arc in graph.arcs:
        src, dst = arc.src, arc.dst
        if src in comp_names:
            sub = graph.subgraph(src)
            if arc.var not in sub.outputs:
                raise GraphError(
                    f"composite {src!r}: outgoing variable {arc.var!r} has no "
                    f"output port (ports: {sorted(sub.outputs)})"
                )
            src = src + SCOPE_SEP + sub.outputs[arc.var]
        dsts = [dst]
        if dst in comp_names:
            sub = graph.subgraph(dst)
            if arc.var not in sub.inputs:
                raise GraphError(
                    f"composite {dst!r}: incoming variable {arc.var!r} has no "
                    f"input port (ports: {sorted(sub.inputs)})"
                )
            target = sub.inputs[arc.var]
            targets = [target] if isinstance(target, str) else list(target)
            dsts = [dst + SCOPE_SEP + t for t in targets]
        for d in dsts:
            out.connect(src, d, arc.var, arc.size)
    return out


def flatten(graph: DataflowGraph, validate: bool = True) -> TaskGraph:
    """Expand ``graph`` and elide storage, producing the scheduling IR.

    Linear in nodes + arcs.  ``graph`` is only read: a composite-free design
    is walked in place, never copied, and the returned tasks get their own
    ``meta`` dict (a shallow copy — nested values are shared).

    Storage elision rules (``P`` = producer task, ``C`` = consumer task,
    ``S`` = storage node holding variable ``v``):

    * ``P -> S -> C``  becomes the edge ``P -> C`` carrying ``(v, S.size)``;
    * ``S -> C`` with no producer marks ``v`` as a **graph input** consumed
      by ``C`` (initial value taken from ``S.initial``);
    * ``P -> S`` with no consumer marks ``v`` as a **graph output** produced
      by ``P``;
    * direct ``P -> C`` arcs are kept as-is (control or data dependence).

    A storage with several writers is legal when every writer pair is
    ordered by a precedence path (otherwise rule DF110 flags the race and
    validation fails): the *last* writer in precedence order wins, and
    consumers read its value.  Earlier writes are superseded, matching
    sequential overwrite semantics.
    """
    if validate:
        graph.validate()
    flat = _single_level(graph)
    tg = TaskGraph(graph.name)

    topo_index: dict[str, int] = {}

    def last_writer(producers: list[str]) -> str:
        """The precedence-last of a storage's writers (last write wins)."""
        unique = sorted(set(producers))
        if len(unique) == 1:
            return unique[0]
        if not topo_index:
            try:
                order = flat.topological_order()
            except Exception:  # cyclic and unvalidated: any stable order
                order = flat.node_names
            topo_index.update((n, i) for i, n in enumerate(order))
        return max(unique, key=topo_index.__getitem__)

    for node in flat.tasks:
        tg.add_task(node.name, work=node.work, label=node.label, program=node.program, **node.meta)

    seen_edges: set[tuple[str, str, str]] = set()
    seen_inputs: set[tuple[str, str]] = set()

    def add_edge(src: str, dst: str, var: str, size: float) -> None:
        key = (src, dst, var)
        if key in seen_edges:
            return
        seen_edges.add(key)
        tg.add_edge(src, dst, var=var, size=size)

    for node in flat.storages:
        producers = flat.predecessors(node.name)
        consumers = flat.successors(node.name)
        var = node.data
        if producers and consumers:
            producer = last_writer(producers)
            for consumer in consumers:
                add_edge(producer, consumer, var, node.size)
        elif consumers:  # graph input
            readers = tg.graph_inputs.setdefault(var, [])
            for consumer in consumers:
                if (var, consumer) not in seen_inputs:
                    seen_inputs.add((var, consumer))
                    readers.append(consumer)
            tg.input_sizes[var] = node.size
            if node.initial is not None:
                tg.input_values[var] = node.initial
        elif producers:  # graph output
            producer = last_writer(producers)
            tg.graph_outputs[var] = producer
            tg.output_sizes[var] = node.size
        # an isolated storage node is legal but contributes nothing

    for arc in flat.arcs:
        s, d = flat.node(arc.src), flat.node(arc.dst)
        if s.kind is not NodeKind.STORAGE and d.kind is not NodeKind.STORAGE:
            add_edge(arc.src, arc.dst, arc.var, arc.size)

    return tg
