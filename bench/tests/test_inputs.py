"""The same ``--seed`` builds byte-identical request bodies; another does not."""

import hashlib

import pytest

from bench.edit_loop import EditLoop
from bench.pipeline_batch import PipelineBatch
from bench.spec import SMOKE
from bench.sweep_cold import SweepCold
from bench.warm_mix import WarmMix


def digest(ops):
    sha = hashlib.sha256()
    for op in ops:
        sha.update(f"{op.kind} {op.method} {op.path}\n".encode())
        sha.update(op.body or b"")
    return sha.hexdigest()


def edit_ops(seed):
    workload = EditLoop(seed, SMOKE)
    workload.payload["base_schedule"] = {"stand-in": "for the daemon's answer"}
    return [workload.make_op(i) for i in range(4)]


def sweep_ops(seed):
    return SweepCold(seed, SMOKE, seconds=1).ops


def mix_ops(seed):
    workload = WarmMix(seed, SMOKE, seconds=1)
    return workload.setup_ops + workload.ops


@pytest.mark.parametrize("build", [edit_ops, sweep_ops, mix_ops])
def test_bodies_are_a_pure_function_of_the_seed(build):
    assert digest(build(7)) == digest(build(7))
    assert digest(build(7)) != digest(build(8))


def test_batch_projects_are_a_pure_function_of_the_seed():
    docs = lambda seed: [item.doc for item in PipelineBatch(seed, SMOKE).items]  # noqa: E731
    assert docs(7) == docs(7)
    assert docs(7) != docs(8)


def test_each_edit_differs_from_the_base_in_exactly_one_node():
    workload = EditLoop(3, SMOKE)
    base = list(workload._work)
    for index in range(5):
        workload.make_op(index)
        now = [node["work"] for node in workload._nodes]
        changed = [i for i, (a, b) in enumerate(zip(base, now)) if a != b]
        assert changed == [workload.edited_work(index)[0]]


def test_warm_mix_has_the_key_set_the_readme_promises():
    from bench.spec import FULL

    workload = WarmMix(1, FULL, seconds=1)
    assert workload.n_pairs == 72
    assert len(workload.keys) == 1152
    kinds = [op.kind for op in workload.ops]
    share = lambda kind: kinds.count(kind) / len(kinds)  # noqa: E731
    assert 0.05 < share("store_get") < 0.09
    assert 0.01 < share("store_put") < 0.03
