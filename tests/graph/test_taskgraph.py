"""Unit tests for the flat TaskGraph scheduling IR."""

import pytest

from repro.errors import CycleError, GraphError
from repro.graph import TaskGraph
from repro.graph.taskgraph import TaskSpec


@pytest.fixture
def vee():
    """a, b -> c  (join)."""
    tg = TaskGraph("vee")
    tg.add_task("a", work=2.0)
    tg.add_task("b", work=3.0)
    tg.add_task("c", work=1.0)
    tg.add_edge("a", "c", var="x", size=4.0)
    tg.add_edge("b", "c", var="y", size=5.0)
    return tg


class TestConstruction:
    def test_counts(self, vee):
        assert len(vee) == 3
        assert len(vee.edges) == 2

    def test_duplicate_task(self, vee):
        with pytest.raises(GraphError, match="duplicate"):
            vee.add_task("a")

    def test_duplicate_edge(self, vee):
        with pytest.raises(GraphError, match="duplicate"):
            vee.add_edge("a", "c", var="x")

    def test_parallel_edges_with_distinct_vars(self, vee):
        vee.add_edge("a", "c", var="z", size=1.0)
        assert vee.comm_size("a", "c") == 5.0
        assert len(vee.edges_between("a", "c")) == 2

    def test_unknown_endpoint(self, vee):
        with pytest.raises(GraphError, match="unknown task"):
            vee.add_edge("a", "nope")

    def test_negative_work_rejected(self, vee):
        with pytest.raises(GraphError):
            vee.add_task("w", work=-2)
        with pytest.raises(GraphError):
            vee.set_work("a", -1)

    def test_set_work(self, vee):
        vee.set_work("a", 10.0)
        assert vee.work("a") == 10.0


class TestQueries:
    def test_adjacency(self, vee):
        assert vee.successors("a") == ["c"]
        assert sorted(vee.predecessors("c")) == ["a", "b"]
        assert vee.in_edges("c")[0].var in {"x", "y"}

    def test_entry_exit(self, vee):
        assert sorted(vee.entry_tasks()) == ["a", "b"]
        assert vee.exit_tasks() == ["c"]

    def test_edge_lookup(self, vee):
        assert vee.edge("a", "c").size == 4.0
        with pytest.raises(GraphError):
            vee.edge("c", "a")

    def test_totals(self, vee):
        assert vee.total_work() == 6.0
        assert vee.total_comm() == 9.0

    def test_comm_size_absent_pair(self, vee):
        assert vee.comm_size("b", "a") == 0.0


class TestAlgorithms:
    def test_topological_order(self, vee):
        order = vee.topological_order()
        assert order.index("a") < order.index("c")
        assert order.index("b") < order.index("c")

    def test_cycle_raises(self):
        tg = TaskGraph()
        tg.add_task("a")
        tg.add_task("b")
        tg.add_edge("a", "b")
        tg.add_edge("b", "a")
        with pytest.raises(CycleError):
            tg.topological_order()
        assert not tg.is_acyclic()

    def test_transitive_closure(self):
        tg = TaskGraph()
        for n in "abcd":
            tg.add_task(n)
        tg.add_edge("a", "b")
        tg.add_edge("b", "c")
        reach = tg.transitive_closure()
        assert reach["a"] == {"b", "c"}
        assert reach["c"] == set()
        assert reach["d"] == set()

    def test_independent(self):
        tg = TaskGraph()
        for n in "abc":
            tg.add_task(n)
        tg.add_edge("a", "b")
        assert tg.independent("a", "c")
        assert not tg.independent("a", "b")
        assert not tg.independent("b", "a")

    def test_copy_independent(self, vee):
        dup = vee.copy()
        dup.add_task("z")
        dup.set_work("a", 99)
        assert "z" not in vee
        assert vee.work("a") == 2.0
        assert dup.graph_inputs == vee.graph_inputs

    def test_copy_preserves_io_maps(self, vee):
        vee.graph_inputs = {"A": ["a"]}
        vee.graph_outputs = {"out": "c"}
        vee.input_values = {"A": 3.0}
        dup = vee.copy()
        assert dup.graph_inputs == {"A": ["a"]}
        assert dup.graph_outputs == {"out": "c"}
        assert dup.input_values == {"A": 3.0}


def test_respecified_names_the_tasks_put_in_place(vee):
    """A graph :meth:`replaced` from another shares its edges, and names
    the tasks whose spec it put in place; any other graph is not compared."""
    edited = vee.replaced({"b": TaskSpec("b", work=3)})
    assert edited.respecified(vee) == ["b"]
    assert edited.respecified(edited) == []
    assert edited.replaced({}).respecified(edited) == []
    assert edited.respecified(vee.copy()) is None
