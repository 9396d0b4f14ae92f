"""Weights and sizes are finite numbers wherever they are checked.

A NaN or infinite ``work`` or ``size`` used to be accepted, and the
daemon echoed it back as ``NaN`` / ``Infinity``, which is not JSON.  An
int too large for a float is refused with them: what it computes would
overflow to infinity.
"""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.dataflow import DataflowGraph
from repro.graph.node import Arc, StorageNode, TaskNode
from repro.graph.taskgraph import TaskGraph, TaskTable

NON_FINITE = [float("nan"), float("inf"), float("1e999"), 10**400]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_every_checked_weight_and_size_refuses_a_non_finite_number(value):
    with pytest.raises(GraphError, match="finite"):
        TaskNode("t", work=value)
    with pytest.raises(GraphError, match="finite"):
        StorageNode("s", size=value)
    with pytest.raises(GraphError, match="finite"):
        Arc("a", "b", size=value)
    for kind in (TaskTable, TaskGraph):
        table = kind()
        with pytest.raises(GraphError, match="finite"):
            table.add_task("t", work=value)
        table.add_task("a")
        table.add_task("b")
        with pytest.raises(GraphError, match="finite"):
            table.add_edge("a", "b", size=value)
    graph = TaskGraph()
    graph.add_task("t", work=2.0)
    with pytest.raises(GraphError, match="finite"):
        graph.set_work("t", value)
    assert graph.work("t") == 2.0


def test_a_drawn_design_refuses_them_through_its_builders():
    g = DataflowGraph("d")
    with pytest.raises(GraphError, match="finite"):
        g.add_task("t", work=float("nan"))
    g.add_task("t")
    g.add_storage("s")
    with pytest.raises(GraphError, match="finite"):
        g.connect("t", "s", size=float("inf"))
    assert "t" in g and not g.arcs


def test_negative_and_wrongly_typed_values_fail_as_before():
    with pytest.raises(GraphError, match=">= 0"):
        TaskNode("t", work=float("-inf"))
    with pytest.raises(TypeError):
        TaskNode("t", work="heavy")
    assert TaskNode("t", work=0).work == 0
