"""Tests for matmul, pipeline, and Monte-Carlo applications."""

import numpy as np
import pytest

from repro.apps import (
    analyze_signal,
    estimate_pi,
    matmul_design,
    matmul_taskgraph,
    montecarlo_design,
    montecarlo_taskgraph,
    multiply,
    pipeline_taskgraph,
    reference_pi,
    reference_stats,
)
from repro.graph import average_parallelism, flatten, max_width
from repro.machine import MachineParams, make_machine
from repro.sched import check_schedule, get_scheduler
from repro.codegen import run

CHEAP = MachineParams(msg_startup=0.05, transmission_rate=50.0)


class TestMatmul:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        np.testing.assert_allclose(multiply(A, B), A @ B, rtol=1e-10)

    def test_rejects_odd_or_mismatched(self):
        with pytest.raises(ValueError):
            matmul_design(3)
        with pytest.raises(ValueError):
            multiply(np.eye(2), np.eye(4))

    def test_design_validates(self):
        matmul_design(4).validate()

    def test_wide_middle_layer(self):
        tg = matmul_taskgraph(4)
        assert max_width(tg) == 4  # the four block products

    def test_parallel_execution_correct(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4))
        machine = make_machine("full", 4, CHEAP)
        schedule = get_scheduler("mh").schedule(matmul_taskgraph(4), machine)
        check_schedule(schedule)
        par = run(schedule, inputs={"A": A, "B": B}, target="inproc")
        np.testing.assert_allclose(par["C"], A @ B, rtol=1e-10)


class TestPipeline:
    def test_matches_numpy_reference(self):
        got = analyze_signal(64, 2.0)
        want = reference_stats(64, 2.0)
        for key in ("m", "peak", "energy"):
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-12)

    def test_design_validates(self):
        from repro.apps import pipeline_design

        pipeline_design(16).validate()

    def test_pipeline_has_no_parallelism(self):
        tg = pipeline_taskgraph(32)
        assert max_width(tg) == 1
        assert average_parallelism(tg) == pytest.approx(1.0)

    def test_scheduler_keeps_pipeline_together(self):
        tg = pipeline_taskgraph(32)
        machine = make_machine("hypercube", 4, MachineParams(msg_startup=10.0))
        schedule = get_scheduler("mh").schedule(tg, machine)
        assert len(set(schedule.assignment().values())) == 1


class TestMonteCarlo:
    def test_matches_reference_exactly(self):
        assert estimate_pi(4, 150) == reference_pi(4, 150)

    def test_estimate_is_plausible(self):
        assert abs(estimate_pi(8, 400) - np.pi) < 0.2

    def test_design_validates(self):
        montecarlo_design(4).validate()

    def test_width_equals_workers(self):
        tg = montecarlo_taskgraph(6, 50)
        assert max_width(tg) == 6

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError):
            montecarlo_design(0)

    def test_parallel_run_matches_sequential(self):
        tg = montecarlo_taskgraph(4, 100)
        machine = make_machine("hypercube", 4, CHEAP)
        schedule = get_scheduler("mh").schedule(tg, machine)
        par = run(schedule, target="inproc")
        assert float(par["pi_est"]) == reference_pi(4, 100)

    def test_speedup_is_real_for_wide_graph(self):
        """The embarrassingly parallel app must actually predict speedup."""
        from repro.sched import predict_speedup
        from repro.sim import calibrate_works

        tg = calibrate_works(montecarlo_taskgraph(8, 200))
        report = predict_speedup(tg, (1, 2, 4, 8), params=CHEAP)
        assert report.best().speedup > 3.0
