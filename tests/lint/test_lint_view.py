"""Lint reads the design's single-level view; it copies no node.

``lint_design`` used to lint ``expand(design)``, an independent deep copy of
every node, only to read it.  It now reads ``_single_level(design)``: the
design itself when it has no composites, else a graph sharing the design's
node objects.  ``conftest.py`` holds every rule to reading; these tests pin
that the view is what lint reads and that the guard itself can fail.
"""

import pathlib

import numpy as np
import pytest

from repro import apps
from repro.env.project import BangerProject
from repro.graph.dataflow import DataflowGraph
from repro.graph.generators import random_hierarchical
from repro.lint import lint_design, lint_project
from repro.machine import MachineParams, make_machine

from tests.graph.test_flat_identity import nested_design
from tests.lint.conftest import RULE_FAMILIES, snapshot, unchanged

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
MACHINE = make_machine("hypercube", 8, MachineParams(msg_startup=50.0, transmission_rate=1.0))


def _flat_design():
    g = DataflowGraph("flat")
    g.add_storage("a", data="a", initial=np.arange(3.0))
    g.add_task("t", work=1.0, program="input a\noutput r, s\nlocal q\nr := a / 0", tags=[1])
    g.add_task("u", program=None)
    g.add_storage("r", data="r")
    g.connect("a", "t")
    g.connect("t", "r")
    g.connect("u", "r")  # a second writer: the DF110 race
    return g


def _designs():
    return {
        "flat": _flat_design(),
        "nested": nested_design(),
        "lu3": apps.lu3_design(np.eye(3) * 4.0, np.ones(3)),
        "random": random_hierarchical(3, seed=5),
    }


@pytest.mark.parametrize("name", sorted(_designs()))
def test_every_rule_family_reads_the_view(name, lint_rules_only_read, monkeypatch):
    design = _designs()[name]
    monkeypatch.setattr(DataflowGraph, "copy", _no_copy)
    report = lint_design(design, MACHINE)
    checked = lint_rules_only_read
    assert all(checked.calls[family] == 1 for family in RULE_FAMILIES), checked.calls
    assert checked.design is design
    if design.composites:
        # a new graph, over the design's own top-level node objects
        assert checked.view is not design
        viewed = {id(n) for n in checked.view.nodes}
        assert all(id(n) in viewed for n in design.nodes if not getattr(n, "is_composite", False))
    else:
        assert checked.view is design
    assert report.diagnostics


def test_lint_project_with_concurrency_reads_the_view(lint_rules_only_read):
    project = BangerProject.load(EXAMPLES / "lu_decomposition.json")
    lint_project(project, concurrency=True)
    assert lint_rules_only_read.calls["crosslayer_diagnostics"] == 1


def test_the_guard_sees_a_write():
    design = nested_design()
    before = snapshot(design)
    task = design.tasks[0]
    task.meta["touched"] = True
    with pytest.raises(AssertionError, match="changed"):
        unchanged(before)
    del task.meta["touched"]
    unchanged(before)
    design._arcs.append(design._arcs.pop())
    unchanged(before)
    arc = design._arcs.pop()
    design._arcs.append(type(arc)(arc.src, arc.dst, arc.var, arc.size))
    with pytest.raises(AssertionError, match="replaced"):
        unchanged(before)


def _no_copy(self, *args, **kwargs):
    raise AssertionError("lint copied a graph")
