"""Byte identity of the flat IR, pinned from before flatten went copy-free.

The goldens pin schedules; these pin what the schedulers are *given*: the
``content_hash`` of ``flatten(design)`` and ``BangerProject.fingerprints()``
for every corpus project and shipped example, plus a three-level design.
The values were computed at the commit before ``flatten`` stopped deep
copying its input, so any drift in node order, edge order, port fan-out,
``meta`` or input values shows up here by name.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.env.project import BangerProject
from repro.graph.dataflow import DataflowGraph
from repro.graph.hierarchy import depth, expand, flatten
from repro.graph.serialize import dataflow_fingerprint
from repro.store.corpus import corpus_document, corpus_names, example_names

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"

#: ``flatten(design).content_hash()`` of every corpus project.
PINNED_FLAT = {
    "family_bitonic":
        "b50fae1c4c74a568742a6d1e47c655d810e5d962f844369e5e232c496795f399",
    "family_butterfly":
        "83b1035162e60a0a8a4cedeab4f64d0412948551dd1cacd1c96a433e2ee7645a",
    "family_chain":
        "5579e448f99c45e05a67486641a5f96f87703cbd3f34cd7405b355cc8e3a5a3b",
    "family_cholesky":
        "dcfb572173bf382e916906b91632a696c44f34192957ca01df3423858f58f0c7",
    "family_diamond":
        "4cff9b80d322df2c0768f5719e3671d1a73c11acac34e69063110e563e870b18",
    "family_fork_join":
        "b0f2a23f9e3f2aea68b09dd9f6d8d4738ff27d5226812299b38012aed173b922",
    "family_gauss":
        "32d7322d47a7501c966ca20be399df95d3f284574ad48653643ffeb1693ebbcd",
    "family_in_tree":
        "c9f7a655571479fe8dc30cdced490cb1fd745d26f1500e7ba594710c2cd51da3",
    "family_lu":
        "cb4b1b06c8772eac3db6ddb9319bdd5acba65887ef2c95111fe94513f15e6fc4",
    "family_map_reduce":
        "a82359719264f7453ab58849acfd9654460042fe179558936104188a12212698",
    "family_ml_train_apply":
        "de87931336f2c98ef868dcc26296b0c5a484c0f7bc7a708979496567067226f8",
    "family_out_tree":
        "3e4345fea20f39dcb2517af04763b6618d6158174672dad63630c549f02123d3",
    "family_pipeline":
        "8f2e50c954688ed2d7bb172c11855ba636df5132c27bf9a19eca03f7e39ac83e",
    "family_random":
        "0fa7032db55f4222f33b6ba486fd0de2ac7f8f89eef745a5efede349d88b22d7",
    "family_stencil":
        "6efb019d1c3a739be0e62b0939a2a58390d489f81729e537b5876880fbaf836d",
    "family_wavefront":
        "03396992cdef3cc4d764d3a73f4bbf15918bf9e946ddbae66e2d607f52c66b6d",
    "heat_equation":
        "f4695c1cb31d8cd8ee38235150b1111ce7b1ec59c0dac1031022119cba9bf3ac",
    "lu_blocked":
        "7d16cf52941234194916714f05bbe59298e50e37463cf98defa414eba033ea6f",
    "lu_decomposition":
        "33352876398275c186b5e6ff5625eb391f30b908ede87f16edcbb2ca2c1df320",
    "matrix_multiply":
        "372c4ab1587900beaa6d8e34baa312f12d83bbfeb0002732a7ae78a738a84ebd",
    "montecarlo_pi":
        "bcdafbdd935d548e2c330e1b71df9eb4e37807d185fad457837385a0f86e724f",
    "signal_pipeline":
        "b0d5404ab5adb841f68913baefab4a1bc6d671008e04abb489c123b195d14694",
}

#: Machine hashes: the families' 8-processor and the examples' 4-processor hypercube.
FAMILY_MACHINE = "cc5c23d4c74a3937017a823de3afd4b07899bb83f5338b42bc5017e41b51a3bb"
EXAMPLE_MACHINE = "eed474361e3b28b81c7d2875fffc1cddcb63befc87b038c562e671d227c5ff2d"

NESTED_FLAT = "f62af88d891c9bd8d89859c73855bbc6601a15543d7fdfdf8c80734878613e80"
NESTED_EXPANDED = "8cddcee13807003583bfabd12783ce74d1509d730bbb0d4d055ad8dbebe76f3f"


def check_project(project: BangerProject, name: str) -> None:
    before = dataflow_fingerprint(project.design)
    assert flatten(project.design).content_hash() == PINNED_FLAT[name]
    machine = EXAMPLE_MACHINE if name in example_names() else FAMILY_MACHINE
    assert project.fingerprints() == {"graph": PINNED_FLAT[name], "machine": machine}
    assert dataflow_fingerprint(project.design) == before


def test_the_pin_list_is_the_corpus():
    assert sorted(PINNED_FLAT) == sorted(corpus_names())


@pytest.mark.parametrize("name", sorted(PINNED_FLAT))
def test_corpus_project_flattens_to_the_pinned_ir(name):
    doc = corpus_document(name)
    check_project(BangerProject.from_dict(doc), name)


@pytest.mark.parametrize("name", example_names())
def test_shipped_example_flattens_to_the_pinned_ir(name):
    doc = json.loads((EXAMPLES_DIR / f"{name}.json").read_text(encoding="utf-8"))
    check_project(BangerProject.from_dict(doc), name)


def test_figure_1_input_port_fans_out_in_port_order():
    design = BangerProject.from_dict(
        corpus_document("lu_decomposition")
    ).design
    assert depth(design) == 2
    readers = flatten(design).graph_inputs["A"]
    assert len(readers) == len(set(readers)) == 4
    assert [r.rsplit(".", 1)[1] for r in readers] == ["fan1", "fl21", "fl31", "asm"]


def nested_design() -> DataflowGraph:
    """Three levels (composite in composite), a fan-out input port, nested
    ``meta`` values and a numpy initial value."""
    leaf = DataflowGraph("leaf", inputs={"v": ["sq", "neg"]}, outputs={"w": "add"})
    leaf.add_task("sq", work=2.0, program="input v\noutput a\na := v * v", tags=["hot", {"k": 1}])
    leaf.add_task("neg", work=1.0, program="input v\noutput b\nb := 0 - v")
    leaf.add_storage("a"), leaf.add_storage("b")
    leaf.add_task("add", work=3.0, program="input a, b\noutput w\nw := a + b")
    for src, dst in [("sq", "a"), ("neg", "b"), ("a", "add"), ("b", "add")]:
        leaf.connect(src, dst)

    mid = DataflowGraph("mid", inputs={"v": "inner"}, outputs={"w": "scale"})
    mid.add_composite("inner", leaf, label="leaf level")
    mid.add_storage("w0", data="w", size=4.0)
    mid.add_task("scale", work=5.0, program="input w\noutput w\nw := w * 2", layout={"x": [1, 2]})
    mid.connect("inner", "w0", "w")
    mid.connect("w0", "scale")

    top = DataflowGraph("nested")
    top.add_storage("v", initial=np.array([1.0, 2.0, 3.0]), size=3.0, note={"unit": "m"})
    top.add_composite("outer", mid)
    top.add_storage("w", size=3.0)
    top.add_task("show", work=1.0, program="input w\noutput r\nr := w")
    top.add_storage("r")
    top.connect("v", "outer", "v")
    top.connect("outer", "w", "w")
    top.connect("w", "show")
    top.connect("show", "r")
    return top


def test_three_level_design_flattens_to_the_pinned_ir():
    design = nested_design()
    assert depth(design) == 3
    before = dataflow_fingerprint(design)
    tg = flatten(design)
    assert tg.content_hash() == NESTED_FLAT
    assert tg.graph_inputs == {"v": ["outer.inner.sq", "outer.inner.neg"]}
    assert dataflow_fingerprint(expand(design)) == NESTED_EXPANDED
    assert dataflow_fingerprint(design) == before


@pytest.mark.parametrize(
    "design", [nested_design(), expand(nested_design())], ids=["composites", "flat"]
)
def test_flatten_reads_its_input_and_hands_out_its_own_meta(design):
    before = dataflow_fingerprint(design)
    tg = flatten(design)
    for spec in tg.tasks:
        spec.meta["touched"] = True
        spec.work += 1.0
        spec.label = "edited"
    tg.graph_inputs["v"].append("intruder")
    assert dataflow_fingerprint(design) == before
    assert flatten(design).content_hash() == NESTED_FLAT


def test_expand_returns_an_independent_deep_copy():
    for design in (nested_design(), expand(nested_design())):
        before = dataflow_fingerprint(design)
        flat = expand(design)
        assert not flat.composites
        for node in flat.nodes:
            assert all(node is not other for other in design.nodes)
        flat.node("outer.inner.sq").meta["tags"].append("mutated")
        flat.node("v").initial[0] = 99.0
        flat.remove_node("show")
        assert dataflow_fingerprint(design) == before
