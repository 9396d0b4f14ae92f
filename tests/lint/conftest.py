"""Every lint rule only reads the design and its single-level view.

``lint_design`` hands its rules the design's single-level view
(``graph.hierarchy._single_level``): the design itself when it has no
composites, otherwise a graph that shares the design's node objects.  No
copy shields them, so this fixture, which wraps each rule family that
``repro.lint.engine`` calls, is what holds them to reading: around every
call in this package's tests it snapshots the design (subgraphs included)
and the view, and asserts that afterwards each node, arc list, adjacency
list, ``meta`` dict and port map is the same object holding the same value.
The golden tests fire every rule ID, so every rule passes through here.
"""

import copy

import numpy as np
import pytest

from repro.lint import engine

#: Rule families ``lint_design`` calls, by their name in ``repro.lint.engine``.
RULE_FAMILIES = ("design_diagnostics", "crosslayer_diagnostics", "machine_diagnostics")


def snapshot(graph, out=None):
    """``[(kind, object, what it held)]`` for everything a rule could change
    in ``graph`` and its subgraphs: containers by the identity of their
    items, nodes, ``meta`` dicts and port maps by value."""
    out = [] if out is None else out
    out.append(("items", graph._nodes, dict(graph._nodes)))
    out.append(("items", graph._arcs, list(graph._arcs)))
    for adjacency in (graph._succ, graph._pred):
        out.append(("items", adjacency, dict(adjacency)))
        out.extend(("items", arcs, list(arcs)) for arcs in adjacency.values())
    out.append(("items", graph._subgraphs, dict(graph._subgraphs)))
    out.extend(("value", ports, copy.deepcopy(ports)) for ports in (graph.inputs, graph.outputs))
    for node in graph._nodes.values():
        out.append(("value", node, copy.deepcopy(vars(node))))
        out.append(("value", node.meta, copy.deepcopy(node.meta)))
    for sub in graph._subgraphs.values():
        snapshot(sub, out)
    return out


def equal(a, b):
    """``a == b``, with arrays compared element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(equal, a, b))
    return a == b


def unchanged(before):
    for kind, held, value in before:
        if kind == "value":
            now = held if isinstance(held, dict) else vars(held)
            assert equal(now, value), f"a lint rule changed {held!r}"
            continue
        keys = list(held) if isinstance(held, dict) else range(len(held))
        assert len(held) == len(value), f"a lint rule resized {type(held).__name__}"
        for key in keys:
            assert held[key] is value[key], f"a lint rule replaced item {key!r}"


class Checked:
    """Counts the rule-family calls that were held to reading."""

    def __init__(self):
        self.calls = {name: 0 for name in RULE_FAMILIES}
        self.design = None
        self.view = None


@pytest.fixture(autouse=True)
def lint_rules_only_read(monkeypatch):
    checked = Checked()
    real_view = engine._single_level

    def view(design):
        checked.view = real_view(design)
        return checked.view

    def reading(name, rule):
        def wrapper(*args, **kwargs):
            if name == "design_diagnostics":
                checked.design, checked.view = args[0], None
            graphs = [g for g in (checked.design, checked.view) if g is not None]
            before = [snapshot(g) for g in graphs]
            result = rule(*args, **kwargs)
            for held in before:
                unchanged(held)
            checked.calls[name] += 1
            return result

        return wrapper

    monkeypatch.setattr(engine, "_single_level", view)
    for name in RULE_FAMILIES:
        monkeypatch.setattr(engine, name, reading(name, getattr(engine, name)))
    return checked
