"""Rule-based properties: the adjacency lists stay honest under mutation.

``DataflowGraph.connect`` and ``TaskGraph.add_edge`` look for a duplicate
only among ``src``'s outgoing arcs.  That is sound only while ``_succ`` is
exactly the per-source view of the arc list, whatever sequence of
``connect`` / ``remove_arc`` / ``remove_node`` / ``copy`` came before — so
these machines interleave them against a brute-force list of
``(src, dst, var)`` triples.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import GraphError
from repro.graph.dataflow import DataflowGraph
from repro.graph.taskgraph import TaskGraph

NAMES = [f"n{i}" for i in range(7)]
VARS = ["", "x", "y"]
index = st.integers(min_value=0, max_value=10_000)


def pick(items, i):
    return items[i % len(items)]


class DataflowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.g = DataflowGraph("m")
        self.nodes: list[str] = []
        self.storage_data: dict[str, str] = {}
        self.model: list[tuple[str, str, str]] = []
        self.removed: list[tuple[str, str, str]] = []
        self.frozen: tuple[DataflowGraph, list[str], list] | None = None

    def effective_var(self, src, dst, var):
        """The label ``connect`` gives the arc (storage data when omitted)."""
        if var:
            return var
        for endpoint in (src, dst):
            if endpoint in self.storage_data:
                return self.storage_data[endpoint]
        return var

    # -- mutations ------------------------------------------------------ #
    @rule(i=index, storage=st.booleans())
    def add_node(self, i, storage):
        name = pick(NAMES, i)
        if name in self.nodes:
            with pytest.raises(GraphError, match="duplicate node"):
                self.g.add_task(name)
            return
        if storage:
            self.g.add_storage(name, data="d" + name)
            self.storage_data[name] = "d" + name
        else:
            self.g.add_task(name)
        self.nodes.append(name)

    @precondition(lambda self: len(self.nodes) >= 2)
    @rule(i=index, j=index, var=st.sampled_from(VARS))
    def connect(self, i, j, var):
        src, dst = pick(self.nodes, i), pick(self.nodes, j)
        if src == dst:
            with pytest.raises(GraphError, match="self-loop"):
                self.g.connect(src, dst, var)
            return
        triple = (src, dst, self.effective_var(src, dst, var))
        if triple in self.model:
            with pytest.raises(GraphError, match="duplicate arc"):
                self.g.connect(src, dst, var)
            return
        arc = self.g.connect(src, dst, var)
        assert (arc.src, arc.dst, arc.var) == triple
        self.model.append(triple)

    @precondition(lambda self: self.model)
    @rule(k=index, other=st.sampled_from(["p", "q"]))
    def same_endpoints_different_var_is_legal(self, k, other):
        src, dst, _ = pick(self.model, k)
        if (src, dst, other) not in self.model:
            self.g.connect(src, dst, other)
            self.model.append((src, dst, other))

    @precondition(lambda self: self.model)
    @rule(k=index)
    def duplicate_always_raises(self, k):
        src, dst, var = pick(self.model, k)
        with pytest.raises(GraphError, match="duplicate arc"):
            self.g.connect(src, dst, var)

    @precondition(lambda self: len(self.nodes) >= 2)
    @rule(i=index, j=index, var=st.sampled_from([None, "x", "y", "p"]))
    def remove_arc(self, i, j, var):
        src, dst = pick(self.nodes, i), pick(self.nodes, j)
        doomed = [
            t for t in self.model
            if t[0] == src and t[1] == dst and (var is None or t[2] == var)
        ]
        if not doomed:
            with pytest.raises(GraphError, match="no arc"):
                self.g.remove_arc(src, dst, var)
            return
        self.g.remove_arc(src, dst, var)
        self.model = [t for t in self.model if t not in doomed]
        self.removed.extend(doomed)

    @precondition(lambda self: self.removed)
    @rule(k=index)
    def a_removed_arc_can_be_added_again(self, k):
        src, dst, var = pick(self.removed, k)
        if src not in self.nodes or dst not in self.nodes:
            return  # an endpoint went with remove_node
        # a re-created endpoint may now be a storage node that labels the arc
        triple = (src, dst, self.effective_var(src, dst, var))
        if triple not in self.model:
            self.g.connect(src, dst, var)
            self.model.append(triple)

    @precondition(lambda self: self.nodes)
    @rule(i=index)
    def remove_node(self, i):
        name = pick(self.nodes, i)
        self.g.remove_node(name)
        self.nodes.remove(name)
        self.storage_data.pop(name, None)
        self.removed.extend(t for t in self.model if name in t[:2])
        self.model = [t for t in self.model if name not in t[:2]]
        with pytest.raises(GraphError, match="unknown node"):
            self.g.remove_node(name)

    @rule()
    def copy(self):
        # carry on with the copy; the original must stay as it was
        self.frozen = (self.g, list(self.nodes), list(self.model))
        self.g = self.g.copy()

    # -- the brute-force model ------------------------------------------ #
    @invariant()
    def graph_matches_model(self):
        check_dataflow(self.g, self.nodes, self.model)
        if self.frozen is not None:
            check_dataflow(*self.frozen)


def check_dataflow(g, nodes, model):
    assert g.node_names == nodes
    assert [(a.src, a.dst, a.var) for a in g.arcs] == model
    for n in nodes:
        out = [t for t in model if t[0] == n]
        inc = [t for t in model if t[1] == n]
        assert g.successors(n) == [t[1] for t in out]
        assert g.predecessors(n) == [t[0] for t in inc]
        assert [(a.src, a.dst, a.var) for a in g.out_arcs(n)] == out
        assert [(a.src, a.dst, a.var) for a in g.in_arcs(n)] == inc


class TaskGraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.g = TaskGraph("m")
        self.tasks: list[str] = []
        self.model: list[tuple[str, str, str]] = []
        self.frozen: tuple[TaskGraph, list[str], list] | None = None

    @rule(i=index)
    def add_task(self, i):
        name = pick(NAMES, i)
        if name in self.tasks:
            with pytest.raises(GraphError, match="duplicate task"):
                self.g.add_task(name)
            return
        self.g.add_task(name, meta_list=[i])
        self.tasks.append(name)

    @precondition(lambda self: len(self.tasks) >= 2)
    @rule(i=index, j=index, var=st.sampled_from(VARS))
    def add_edge(self, i, j, var):
        src, dst = pick(self.tasks, i), pick(self.tasks, j)
        if src == dst:
            with pytest.raises(GraphError, match="self-loop"):
                self.g.add_edge(src, dst, var)
        elif (src, dst, var) in self.model:
            with pytest.raises(GraphError, match="duplicate edge"):
                self.g.add_edge(src, dst, var)
        else:
            self.g.add_edge(src, dst, var)
            self.model.append((src, dst, var))

    @rule(i=index)
    def unknown_endpoint_raises(self, i):
        with pytest.raises(GraphError, match="unknown task"):
            self.g.add_edge("nowhere", pick(NAMES, i))

    @rule()
    def copy(self):
        self.frozen = (self.g, list(self.tasks), list(self.model))
        self.g = self.g.copy()

    @invariant()
    def graph_matches_model(self):
        check_taskgraph(self.g, self.tasks, self.model)
        if self.frozen is not None:
            check_taskgraph(*self.frozen)


def check_taskgraph(g, tasks, model):
    assert g.task_names == tasks
    assert [(e.src, e.dst, e.var) for e in g.edges] == model
    for t in tasks:
        assert g.successors(t) == [m[1] for m in model if m[0] == t]
        assert g.predecessors(t) == [m[0] for m in model if m[1] == t]


machine_settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestDataflowMutation = DataflowMachine.TestCase
TestDataflowMutation.settings = machine_settings
TestTaskGraphMutation = TaskGraphMachine.TestCase
TestTaskGraphMutation.settings = machine_settings
