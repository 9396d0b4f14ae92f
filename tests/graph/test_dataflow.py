"""Unit tests for single-level DataflowGraph behaviour."""

import pytest

from repro.errors import CycleError, GraphError, ValidationError
from repro.graph import DataflowGraph


@pytest.fixture
def simple():
    """A -> f -> B -> g -> C   (two tasks through storage)."""
    g = DataflowGraph("simple")
    g.add_storage("A", initial=1.0)
    g.add_task("f", work=2.0)
    g.add_storage("B")
    g.add_task("g", work=3.0)
    g.add_storage("C")
    g.connect("A", "f")
    g.connect("f", "B")
    g.connect("B", "g")
    g.connect("g", "C")
    return g


class TestConstruction:
    def test_membership_and_len(self, simple):
        assert "f" in simple and "A" in simple and "zz" not in simple
        assert len(simple) == 5

    def test_duplicate_node_rejected(self, simple):
        with pytest.raises(GraphError, match="duplicate"):
            simple.add_task("f")

    def test_connect_unknown_node(self, simple):
        with pytest.raises(GraphError, match="unknown"):
            simple.connect("f", "nope")

    def test_duplicate_arc_rejected(self, simple):
        with pytest.raises(GraphError, match="duplicate arc"):
            simple.connect("A", "f")

    def test_arc_var_defaults_to_storage_data(self, simple):
        (arc,) = simple.out_arcs("A")
        assert arc.var == "A"

    def test_arc_size_defaults_to_storage_size(self):
        g = DataflowGraph()
        g.add_storage("A", size=7.5)
        g.add_task("t")
        arc = g.connect("A", "t")
        assert arc.size == 7.5

    def test_tasks_and_storages_views(self, simple):
        assert {t.name for t in simple.tasks} == {"f", "g"}
        assert {s.name for s in simple.storages} == {"A", "B", "C"}

    def test_remove_node(self, simple):
        simple.remove_node("g")
        assert "g" not in simple
        assert all("g" not in (a.src, a.dst) for a in simple.arcs)
        assert simple.successors("B") == []

    def test_remove_missing_node(self, simple):
        with pytest.raises(GraphError):
            simple.remove_node("nope")

    def test_remove_arc(self, simple):
        simple.remove_arc("B", "g")
        assert simple.predecessors("g") == []

    def test_remove_missing_arc(self, simple):
        with pytest.raises(GraphError):
            simple.remove_arc("A", "g")


class TestTopology:
    def test_sources_and_sinks(self, simple):
        assert simple.sources() == ["A"]
        assert simple.sinks() == ["C"]

    def test_topological_order(self, simple):
        order = simple.topological_order()
        assert order.index("A") < order.index("f") < order.index("B")
        assert order.index("B") < order.index("g") < order.index("C")

    def test_cycle_detection(self):
        g = DataflowGraph()
        for n in "abc":
            g.add_task(n)
        g.connect("a", "b")
        g.connect("b", "c")
        g.connect("c", "a")
        assert not g.is_acyclic()
        cyc = g.find_cycle()
        assert cyc[0] == cyc[-1]
        assert set(cyc) == {"a", "b", "c"}
        with pytest.raises(CycleError):
            g.topological_order()

    def test_acyclic_graph_has_no_cycle(self, simple):
        assert simple.is_acyclic()
        assert simple.find_cycle() == []


class TestValidation:
    def test_valid_graph_passes(self, simple):
        simple.validate()

    def test_empty_graph_invalid(self):
        with pytest.raises(ValidationError, match="empty"):
            DataflowGraph("e").validate()

    def test_multiple_writers_flagged(self):
        g = DataflowGraph()
        g.add_task("t1")
        g.add_task("t2")
        g.add_storage("S")
        g.connect("t1", "S")
        g.connect("t2", "S")
        problems = g.problems()
        assert any("multiple writers" in p for p in problems)

    def test_storage_to_storage_flagged(self):
        g = DataflowGraph()
        g.add_storage("A")
        g.add_storage("B")
        g.connect("A", "B")
        assert any("two storage nodes" in p for p in g.problems())

    def test_validation_error_lists_all_problems(self):
        g = DataflowGraph()
        g.add_task("t1")
        g.add_task("t2")
        g.add_storage("S")
        g.add_storage("S2")
        g.connect("t1", "S")
        g.connect("t2", "S")
        g.connect("S", "S2")
        with pytest.raises(ValidationError) as exc:
            g.validate()
        assert len(exc.value.problems) >= 2


class TestCopy:
    def test_copy_is_deep(self, simple):
        dup = simple.copy()
        dup.remove_node("g")
        assert "g" in simple
        assert len(simple.arcs) == 4

    def test_copy_preserves_structure(self, simple):
        dup = simple.copy()
        assert dup.node_names == simple.node_names
        assert [(a.src, a.dst) for a in dup.arcs] == [(a.src, a.dst) for a in simple.arcs]

    def test_repr_mentions_counts(self, simple):
        assert "nodes=5" in repr(simple)


def test_a_design_iterates_its_nodes(simple):
    assert [node.name for node in simple] == ["A", "f", "B", "g", "C"]
    assert list(simple) == simple.nodes
