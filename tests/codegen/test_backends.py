"""Pluggable backends: registry shape, golden byte-identity on every
example project, and cross-backend execution equivalence.

The golden files under ``tests/codegen/golden/`` pin every emitted byte,
so a saved program never changes under users by accident; a deliberate
change to emitted source re-bases them in the change that makes it.
"""

import math
import pathlib

import numpy as np
import pytest

from repro.codegen import (
    BACKENDS,
    generate,
    get_backend,
    list_backends,
    run_generated,
)
from repro.env import BangerProject
from repro.errors import CodegenError
from repro.sim import run_dataflow

ROOT = pathlib.Path(__file__).parent.parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"
EXAMPLES = sorted(p.stem for p in (ROOT / "examples").glob("*.json"))

#: target -> golden-file suffix
SUFFIX = {"threads": ".py.golden", "mpi": ".mpi.py.golden", "c": ".c.golden"}


def load_project(name: str) -> BangerProject:
    return BangerProject.load(str(ROOT / "examples" / f"{name}.json"))


def synth_inputs(tg) -> dict:
    """Deterministic values for graph inputs that ship without defaults."""
    rng = np.random.default_rng(7)
    values = dict(tg.input_values)
    for i, var in enumerate(sorted(tg.graph_inputs)):
        if var in values:
            continue
        size = int(tg.input_sizes.get(var, 1))
        n = math.isqrt(size)
        # repo convention: matrices are uppercase single letters (A, B)
        if var[:1].isupper() and n * n == size and n > 1:
            m = rng.uniform(-1, 1, (n, n))
            values[var] = m @ m.T + n * np.eye(n)  # SPD: safe for LU apps
        elif size > 1:
            values[var] = rng.uniform(-1, 1, size)
        else:
            values[var] = float(rng.uniform(1, 4))
    return values


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert [e["name"] for e in list_backends()] == ["c", "inproc", "mpi", "threads"]
        assert set(BACKENDS) == {"threads", "inproc", "mpi", "c"}

    def test_get_backend_unknown(self):
        with pytest.raises(CodegenError, match="unknown codegen target"):
            get_backend("fortran")

    def test_list_backends_shape(self):
        listed = {entry["name"]: entry for entry in list_backends()}
        assert set(listed) == set(BACKENDS)
        for entry in listed.values():
            assert entry["description"]
            assert isinstance(entry["emits_source"], bool)
            assert isinstance(entry["runnable"], bool)
        assert listed["threads"]["emits_source"] and listed["threads"]["runnable"]
        assert not listed["inproc"]["emits_source"] and listed["inproc"]["runnable"]
        assert listed["mpi"]["emits_source"] and not listed["mpi"]["runnable"]
        assert listed["c"]["emits_source"] and not listed["c"]["runnable"]

    def test_inproc_does_not_emit_source(self):
        project = load_project("montecarlo_pi")
        with pytest.raises(CodegenError, match="does not emit source"):
            project.generate("inproc")

    def test_source_backends_are_not_directly_runnable(self):
        program = load_project("montecarlo_pi").lower()
        for name in ("mpi", "c"):
            with pytest.raises(CodegenError, match="cannot execute"):
                get_backend(name).run(program)


class TestGoldenByteIdentity:
    """Emitted sources stay byte-for-byte what the old generators produced."""

    @pytest.mark.parametrize("name", EXAMPLES)
    @pytest.mark.parametrize("target", sorted(SUFFIX))
    def test_matches_golden(self, name, target):
        expected = (GOLDEN / f"{name}{SUFFIX[target]}").read_text(encoding="utf-8")
        got = load_project(name).generate(target)
        assert got == expected, f"{name} {target} output drifted from golden"

    def test_golden_inventory_is_complete(self):
        assert len(EXAMPLES) == 6
        assert len(list(GOLDEN.glob("*.golden"))) == len(EXAMPLES) * len(SUFFIX)


class TestBackendEquivalence:
    """Every runnable path computes the sequential reference answer."""

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_inproc_and_threads_match_reference(self, name):
        project = load_project(name)
        tg = project.flat()
        inputs = synth_inputs(tg)
        reference = run_dataflow(tg, inputs)

        program = project.lower()
        direct = get_backend("inproc").run(program, inputs)
        emitted = run_generated(get_backend("threads").emit(program), inputs)

        for out in (direct, emitted):
            assert set(out) == set(reference.outputs)
            for var, value in reference.outputs.items():
                np.testing.assert_array_equal(out[var], value, err_msg=var)

    def test_each_runnable_backend_reads_only_its_own_rendering(self):
        """``inproc`` runs the PITS source and ``threads`` the Python it
        emits: blanking the other rendering changes neither's outputs."""
        import dataclasses

        from repro.codegen.ir import TaskCode

        project = load_project("lu_decomposition")
        inputs = synth_inputs(project.flat())
        program = project.lower()
        expected = get_backend("inproc").run(program, inputs)

        def blank(field):
            tasks = {
                task: dataclasses.replace(code, **{field: ""})
                for task, code in program.tasks.items()
            }
            return dataclasses.replace(program, tasks=tasks)

        for target, field in (("inproc", "python"), ("threads", "pits")):
            got = get_backend(target).run(blank(field), inputs)
            assert set(got) == set(expected)
            for var, value in expected.items():
                np.testing.assert_array_equal(got[var], value, err_msg=var)

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_inproc_trace_is_clean(self, name):
        from repro.codegen import trace_problems

        project = load_project(name)
        inputs = synth_inputs(project.flat())
        program = project.lower()
        result = get_backend("inproc").execute(program, inputs)
        assert trace_problems(program, result.events) == []
        assert len(result.events_of("compute")) == program.step_count()

    def test_all_emitting_backends_consume_one_ir(self, monkeypatch):
        """Emitters take the LoweredProgram, not the schedule: emitting from
        a from_dict round-tripped IR gives identical sources."""
        from repro.codegen import LoweredProgram

        program = load_project("signal_pipeline").lower()
        reloaded = LoweredProgram.from_dict(program.to_dict())
        for target in ("threads", "mpi", "c"):
            backend = get_backend(target)
            assert backend.emit(reloaded) == backend.emit(program)
