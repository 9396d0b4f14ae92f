"""EXT-E — code-generation fidelity.

The paper promised code generators as future work; ours must (a) produce
programs whose outputs match the interpreter bit for bit and (b) be fast
enough for the "generate" button to feel instant.

Shape claims checked:

* generated-Python outputs equal the sequential reference for every app;
* generation of all three source languages completes in milliseconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import write_artifact
from repro.apps import lu3_taskgraph, matmul_taskgraph, montecarlo_taskgraph
from repro.codegen import generate, run_generated
from repro.machine import MachineParams, make_machine
from repro.sched import MHScheduler
from repro.sim import run_dataflow

PARAMS = MachineParams(msg_startup=0.2, transmission_rate=10.0)

A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
B = np.array([1.0, 2.0, 3.0])


def _schedule(tg, n=4):
    return MHScheduler().schedule(tg, make_machine("hypercube", n, PARAMS))


def test_ext_codegen_all_languages(benchmark, artifact_dir):
    schedule = _schedule(lu3_taskgraph())

    def generate_all():
        return (
            generate(schedule, target="threads"),
            generate(schedule, target="mpi"),
            generate(schedule, target="c"),
        )

    py, mpi, c = benchmark(generate_all)
    write_artifact("ext_codegen_python.py.txt", py)
    write_artifact("ext_codegen_mpi.py.txt", mpi)
    write_artifact("ext_codegen_c.c.txt", c)
    assert "def main" in py
    assert "mpi4py" in mpi
    assert "int main" in c


@pytest.mark.parametrize(
    "name,tg,inputs",
    [
        ("lu3", lu3_taskgraph(), {"A": A, "b": B}),
        ("matmul4", matmul_taskgraph(4), {
            "A": np.arange(16, dtype=float).reshape(4, 4),
            "B": np.eye(4) * 2,
        }),
        ("mcpi", montecarlo_taskgraph(4, 100), None),
    ],
)
def test_ext_generated_matches_reference(benchmark, name, tg, inputs):
    schedule = _schedule(tg)
    source = generate(schedule, target="threads")
    reference = run_dataflow(tg, inputs)

    out = benchmark(run_generated, source, inputs)
    assert set(out) == set(reference.outputs)
    for key, value in reference.outputs.items():
        np.testing.assert_allclose(out[key], value, rtol=1e-12)


def test_ext_generation_latency(benchmark):
    """Generation alone (no execution) for the biggest app graph."""
    schedule = _schedule(montecarlo_taskgraph(8, 100), n=8)
    source = benchmark(generate, schedule, target="threads")
    assert len(source.splitlines()) > 100
