"""Tests for the heat-diffusion app (the forall showcase)."""

import numpy as np
import pytest

from repro.apps import (
    diffuse,
    heat_design,
    heat_taskgraph,
    heat_taskgraph_split,
    reference_diffuse,
)
from repro.graph import max_width
from repro.machine import MachineParams, make_machine
from repro.sched import check_schedule, get_scheduler
from repro.codegen import run
from repro.sim import run_dataflow

CHEAP = MachineParams(msg_startup=0.1, transmission_rate=100.0)


class TestNumerics:
    @pytest.mark.parametrize("steps", [1, 3, 6])
    def test_matches_numpy(self, steps):
        rng = np.random.default_rng(steps)
        u0 = rng.random(17)
        got = diffuse(u0, steps, kappa=0.23)
        np.testing.assert_allclose(got, reference_diffuse(u0, steps, 0.23), rtol=1e-12)

    def test_boundaries_fixed(self):
        u0 = np.zeros(9)
        u0[0] = 5.0
        u0[-1] = -2.0
        u0[4] = 1.0
        got = diffuse(u0, 4)
        assert got[0] == 5.0
        assert got[-1] == -2.0

    def test_heat_spreads_and_conserves_interior_shape(self):
        u0 = np.zeros(21)
        u0[10] = 1.0
        got = diffuse(u0, 5, kappa=0.2)
        assert got[10] < 1.0  # peak decays
        assert got[9] > 0 and got[11] > 0  # neighbours warm up
        np.testing.assert_allclose(got, got[::-1], atol=1e-12)  # symmetric

    def test_design_validates(self):
        heat_design(8, 2).validate()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            heat_design(2, 1)
        with pytest.raises(ValueError):
            heat_design(8, 0)


class TestSplitting:
    def test_split_preserves_results(self):
        tg = heat_taskgraph(19, 3)
        split = heat_taskgraph_split(19, 3, ways=4)
        ref = run_dataflow(tg)
        got = run_dataflow(split)
        np.testing.assert_allclose(got.outputs["u3"], ref.outputs["u3"])

    def test_split_creates_width(self):
        assert max_width(heat_taskgraph(16, 2)) == 1
        assert max_width(heat_taskgraph_split(16, 2, ways=4)) >= 4

    def test_split_runs_in_parallel_threads(self):
        split = heat_taskgraph_split(16, 2, ways=4)
        machine = make_machine("full", 4, CHEAP)
        schedule = get_scheduler("mh").schedule(split, machine)
        check_schedule(schedule)
        par = run(schedule, target="inproc")
        ref = run_dataflow(heat_taskgraph(16, 2))
        np.testing.assert_allclose(par["u2"], ref.outputs["u2"])

    def test_split_improves_speedup(self):
        from repro.sched import predict_speedup
        from repro.sim import calibrate_works

        serial_chain = calibrate_works(heat_taskgraph(48, 3))
        split = calibrate_works(heat_taskgraph_split(48, 3, ways=4))
        chain_speedup = predict_speedup(serial_chain, (4,), params=CHEAP).points[0].speedup
        split_speedup = predict_speedup(split, (4,), params=CHEAP).points[0].speedup
        assert chain_speedup == pytest.approx(1.0)
        assert split_speedup > 1.8
