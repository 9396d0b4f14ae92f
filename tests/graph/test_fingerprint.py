"""Content-hash guarantees: stability across processes, sensitivity to change.

The scheduling cache is only sound if ``TaskGraph.content_hash`` (and the
machine fingerprint) hold two promises: the same content always hashes the
same — in this process, after a serialize round trip, and in a fresh
interpreter — and *any* semantic mutation yields a different hash.
"""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import lu_taskgraph, random_layered
from repro.graph.serialize import (
    canonical_json,
    fingerprint,
    taskgraph_from_dict,
    taskgraph_to_dict,
)
from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine, make_machine
from repro.machine.params import MachineParams


def build_graph() -> TaskGraph:
    g = TaskGraph("fp")
    g.add_task("a", work=2.0, label="first")
    g.add_task("b", work=3.0, program="output x\nx := 1")
    g.add_task("c", work=1.5)
    g.add_edge("a", "b", var="v", size=2.0)
    g.add_edge("b", "c", var="w", size=1.0)
    g.graph_inputs = {"v0": ["a"]}
    g.graph_outputs = {"out": "c"}
    return g


class TestStability:
    def test_same_construction_same_hash(self):
        assert build_graph().content_hash() == build_graph().content_hash()

    def test_copy_preserves_hash(self):
        g = build_graph()
        assert g.copy().content_hash() == g.content_hash()

    def test_serialize_round_trip_preserves_hash(self):
        g = build_graph()
        back = taskgraph_from_dict(taskgraph_to_dict(g))
        assert back.content_hash() == g.content_hash()

    def test_hash_stable_across_process_restart(self):
        """A fresh interpreter computes the identical fingerprint."""
        g = build_graph()
        doc = json.dumps(taskgraph_to_dict(g))
        code = (
            "import sys, json\n"
            "from repro.graph.serialize import taskgraph_from_dict\n"
            "print(taskgraph_from_dict(json.loads(sys.stdin.read())).content_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=doc,
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        )
        assert out.stdout.strip() == g.content_hash()

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})

    def test_canonical_json_encodes_numpy_and_reprs_anything_else(self):
        """What plain JSON cannot encode: numpy values as their stored form,
        any other object as its ``repr``."""
        doc = {"n": np.int64(3), "v": np.array([1.0, 2.5]), "f": Fraction(1, 3)}
        assert canonical_json(doc) == (
            '{"f":"Fraction(1, 3)","n":3,'
            '"v":{"__ndarray__":[1.0,2.5],"dtype":"float64"}}'
        )


class TestSensitivity:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.set_work("a", 9.0),
            lambda g: g.add_task("d", work=1.0),
            lambda g: g.add_edge("a", "c", var="z", size=1.0),
            lambda g: setattr(g.task("b"), "program", "output x\nx := 2"),
            lambda g: setattr(g.task("a"), "label", "renamed"),
            lambda g: g.graph_inputs.update({"v1": ["b"]}),
            lambda g: g.graph_outputs.update({"out2": "b"}),
            lambda g: g.input_sizes.update({"v0": 4.0}),
        ],
        ids=[
            "work", "new-task", "new-edge", "program", "label",
            "graph-input", "graph-output", "input-size",
        ],
    )
    def test_any_mutation_changes_hash(self, mutate):
        g = build_graph()
        before = g.content_hash()
        mutate(g)
        assert g.content_hash() != before

    def test_insertion_order_is_semantic(self):
        """Schedulers break ties by insertion order, so the hash sees it."""
        g1 = TaskGraph("o")
        g1.add_task("a")
        g1.add_task("b")
        g2 = TaskGraph("o")
        g2.add_task("b")
        g2.add_task("a")
        assert g1.content_hash() != g2.content_hash()

    def test_generator_graphs_distinct(self):
        assert lu_taskgraph(4).content_hash() != lu_taskgraph(5).content_hash()
        assert (
            random_layered(20, 4, seed=1).content_hash()
            != random_layered(20, 4, seed=2).content_hash()
        )


class TestMachineFingerprint:
    def test_same_machine_same_hash(self):
        p = MachineParams(msg_startup=0.5)
        assert (
            make_machine("hypercube", 8, p).content_hash()
            == make_machine("hypercube", 8, p).content_hash()
        )

    @pytest.mark.parametrize(
        "a, b",
        [
            (("hypercube", 8, MachineParams()), ("hypercube", 4, MachineParams())),
            (("hypercube", 4, MachineParams()), ("mesh", 4, MachineParams())),
            (
                ("hypercube", 4, MachineParams()),
                ("hypercube", 4, MachineParams(msg_startup=1.0)),
            ),
        ],
        ids=["size", "family", "params"],
    )
    def test_different_machines_different_hash(self, a, b):
        assert make_machine(*a).content_hash() != make_machine(*b).content_hash()

    def test_round_trip_preserves_hash_and_family(self):
        m = make_machine("mesh", 9, MachineParams(msg_startup=0.5))
        back = TargetMachine.from_dict(m.to_dict())
        assert back.content_hash() == m.content_hash()
        assert back.topology.family == "mesh"


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
    ),
    edges=st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] < e[1]),
        max_size=10,
    ),
)
def test_property_round_trip_preserves_hash(works, edges):
    """Any serialize round trip is hash-invariant (Hypothesis)."""
    g = TaskGraph("prop")
    for i, w in enumerate(works):
        g.add_task(f"t{i}", work=w)
    for a, b in sorted(edges):
        if a < len(works) and b < len(works):
            g.add_edge(f"t{a}", f"t{b}", var=f"v{a}_{b}", size=float(a + b))
    back = taskgraph_from_dict(taskgraph_to_dict(g))
    assert back.content_hash() == g.content_hash()
