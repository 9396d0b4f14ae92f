"""Tests for the Figure 1 LU application — correctness against numpy."""

import numpy as np
import pytest

from repro.apps import lu3_design, lu3_taskgraph, solve3
from repro.graph import count_primitive_tasks, depth, flatten
from repro.machine import NCUBE_LIKE, make_machine
from repro.sched import check_schedule, get_scheduler
from repro.codegen import run
from repro.sim import run_dataflow


def random_spd_system(seed):
    """A well-conditioned 3x3 system (diagonally dominant, no pivoting needed)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3)) + 4 * np.eye(3)
    b = rng.normal(size=3)
    return A, b


class TestDesignStructure:
    def test_two_levels_like_figure1(self):
        design = lu3_design()
        assert depth(design) == 2
        assert count_primitive_tasks(design) == 7

    def test_validates(self):
        lu3_design().validate()

    def test_composites_named_like_figure(self):
        design = lu3_design()
        assert {c.name for c in design.composites} == {"lud", "solve"}

    def test_flattened_shape(self):
        tg = lu3_taskgraph()
        assert len(tg) == 7
        assert tg.entry_tasks() == ["lud.fan1"]
        assert tg.exit_tasks() == ["solve.backward"]
        assert set(tg.graph_inputs) == {"A", "b"}
        assert tg.graph_outputs == {"x": "solve.backward"}

    def test_figure_task_names_present(self):
        tg = lu3_taskgraph()
        for name in ["lud.fan1", "lud.fl21", "lud.fl31", "lud.fan2", "lud.asm"]:
            assert name in tg


class TestNumericalCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_numpy_solve(self, seed):
        A, b = random_spd_system(seed)
        x = solve3(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-10)

    def test_identity(self):
        x = solve3(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(x, [1, 2, 3])

    def test_lu_factors_are_correct(self):
        A, _ = random_spd_system(3)
        result = run_dataflow(lu3_taskgraph(), {"A": A, "b": np.zeros(3)})
        L = result.task_results["lud.asm"].outputs["L"]
        U = result.task_results["lud.asm"].outputs["U"]
        np.testing.assert_allclose(L @ U, A, rtol=1e-10)
        # unit lower / upper triangular
        np.testing.assert_allclose(np.diag(L), [1, 1, 1])
        assert abs(L[0, 1]) + abs(L[0, 2]) + abs(L[1, 2]) == 0
        assert abs(U[1, 0]) + abs(U[2, 0]) + abs(U[2, 1]) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="3x3"):
            solve3(np.eye(2), [1, 2])
        with pytest.raises(ValueError, match="length 3"):
            solve3(np.eye(3), [1, 2])


class TestScheduledExecution:
    @pytest.mark.parametrize("sched_name", ["mh", "dsh", "roundrobin"])
    def test_parallel_run_matches(self, sched_name):
        A, b = random_spd_system(11)
        machine = make_machine("hypercube", 4, NCUBE_LIKE)
        schedule = get_scheduler(sched_name).schedule(lu3_taskgraph(), machine)
        check_schedule(schedule)
        par = run(schedule, inputs={"A": A, "b": b}, target="inproc")
        np.testing.assert_allclose(par["x"], np.linalg.solve(A, b), rtol=1e-10)

    def test_bound_inputs_flow_through(self):
        A, b = random_spd_system(4)
        tg = flatten(lu3_design(A, b))
        result = run_dataflow(tg)
        np.testing.assert_allclose(result.outputs["x"], np.linalg.solve(A, b), rtol=1e-10)
