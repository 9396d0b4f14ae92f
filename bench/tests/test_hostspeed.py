"""The host-speed samplers: one per CPU, CPU-time bursts, median per phase."""

import os
import time

import pytest

from bench.hostspeed import REFERENCE_BURST_S, HostSpeed, burst


def test_speed_is_reference_over_median_burst_in_the_phase():
    host = HostSpeed()
    slow, fast = REFERENCE_BURST_S * 2, REFERENCE_BURST_S / 2
    host._samples = [(t, slow) for t in (1.0, 2.0, 3.0)] + \
                    [(t, fast) for t in (11.0, 12.0, 13.0)]
    assert host.speed(0.0, 5.0) == pytest.approx(0.5)
    assert host.speed(10.0, 15.0) == pytest.approx(2.0)
    # too few samples in the phase: every sample of the run is used instead
    assert host.speed(2.5, 3.5) == pytest.approx(
        REFERENCE_BURST_S / ((slow + fast) / 2))


def test_samplers_cover_every_cpu_and_end_with_the_block():
    t0 = time.perf_counter()
    with HostSpeed() as host:
        pids = [process.pid for process, _ in host._workers]
        assert len(pids) == len(os.sched_getaffinity(0))
        time.sleep(0.6)
    t1 = time.perf_counter()
    assert not host._workers
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")
    assert len(host._samples) >= 4 * len(pids)
    assert all(t0 <= at <= t1 and cpu_s > 0 for at, cpu_s in host._samples)
    assert 0.05 < host.speed(t0, t1) < 20


def test_burst_is_cpu_time_not_wall_time():
    assert 0 < burst() < 0.1
