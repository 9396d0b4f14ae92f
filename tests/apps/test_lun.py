"""Tests for the general-n LU design (Figure 1 at scale, with programs)."""

import numpy as np
import pytest

from repro.apps import lun_design, lun_taskgraph, solve_n
from repro.graph import average_parallelism, max_width
from repro.machine import MachineParams, make_machine
from repro.sched import check_schedule, get_scheduler, predict_speedup
from repro.codegen import run
from repro.sim import calibrate_works, run_dataflow

CHEAP = MachineParams(msg_startup=0.1, transmission_rate=50.0)


def system(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + n * np.eye(n)  # diagonally dominant
    b = rng.normal(size=n)
    return A, b


class TestNumerics:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matches_numpy(self, n):
        A, b = system(n, seed=n)
        np.testing.assert_allclose(solve_n(A, b), np.linalg.solve(A, b), rtol=1e-9)

    def test_agrees_with_figure1_instance(self):
        from repro.apps import solve3

        A, b = system(3, seed=7)
        np.testing.assert_allclose(solve_n(A, b), solve3(A, b), rtol=1e-12)

    def test_multipliers_form_l(self):
        n = 4
        A, b = system(n, seed=2)
        result = run_dataflow(lun_taskgraph(n), {"A": A, "b": b})
        L = np.eye(n)
        U = np.zeros((n, n))
        for k in range(n - 1):
            for i in range(k + 1, n):
                L[i, k] = result.task_results[f"u{k}_{i}"].outputs[f"m{i}_{k}"]
        U[0] = result.task_results["split"].outputs["r0_0"]
        for i in range(1, n):
            U[i] = result.task_results[f"u{i - 1}_{i}"].outputs[f"r{i}_{i}"]
        np.testing.assert_allclose(L @ U, A, rtol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_n(np.ones((2, 3)), [1, 2])
        with pytest.raises(ValueError):
            solve_n(np.eye(3), [1, 2])
        with pytest.raises(ValueError):
            lun_design(1)


class TestStructure:
    def test_shape_matches_generator(self):
        tg = lun_taskgraph(6)
        # split + (n-1)n/2 updates + fsub + bsub
        assert len(tg) == 1 + 15 + 2
        assert tg.entry_tasks() == ["split"]
        assert tg.exit_tasks() == ["bsub"]

    def test_width_grows_with_n(self):
        assert max_width(lun_taskgraph(4)) == 3
        assert max_width(lun_taskgraph(8)) == 7

    def test_design_validates(self):
        lun_design(5).validate()


class TestScheduledExecution:
    @pytest.mark.parametrize("sched_name", ["mh", "dsh", "roundrobin"])
    def test_parallel_run_correct(self, sched_name):
        n = 5
        A, b = system(n, seed=9)
        machine = make_machine("hypercube", 4, CHEAP)
        schedule = get_scheduler(sched_name).schedule(lun_taskgraph(n), machine)
        check_schedule(schedule)
        par = run(schedule, inputs={"A": A, "b": b}, target="inproc")
        np.testing.assert_allclose(par["x"], np.linalg.solve(A, b), rtol=1e-9)

    def test_generated_code_correct(self):
        from repro.codegen import generate, run_generated

        n = 4
        A, b = system(n, seed=4)
        machine = make_machine("full", 4, CHEAP)
        schedule = get_scheduler("mh").schedule(lun_taskgraph(n), machine)
        out = run_generated(generate(schedule, target="threads"), {"A": A, "b": b})
        np.testing.assert_allclose(out["x"], np.linalg.solve(A, b), rtol=1e-9)

    def test_calibrated_speedup_shape(self):
        """With measured weights, the scaled design shows real speedup."""
        n = 8
        A, b = system(n, seed=1)
        tg = calibrate_works(lun_taskgraph(n), {"A": A, "b": b})
        rep = predict_speedup(tg, (1, 2, 4), params=CHEAP)
        speedups = [p.speedup for p in rep.points]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 1.2
        bound = average_parallelism(tg)
        assert all(s <= bound + 1e-9 for s in speedups)
