"""Property tests: the simulator is a pure function of its inputs, and the
threaded executor never changes answers relative to the serial reference.

Two contracts from the conformance charter (docs/conformance.md):

* ``simulate`` determinism — the event engine breaks ties FIFO, so the same
  schedule replayed twice (with or without contention) must produce a
  byte-identical :class:`~repro.sim.trace.Trace`; the whole seeded pipeline
  (generate → schedule → simulate) is likewise a pure function of the seed.
* threaded-vs-serial equivalence — real threads and queues may reorder
  *when* tasks run, never *what* they compute.
"""

import dataclasses
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.approx import values_close
from repro.graph import DataflowGraph, flatten
from repro.graph.generators import random_layered
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler
from repro.codegen import run
from repro.sim import Trace, run_dataflow, simulate


def trace_bytes(trace: Trace) -> bytes:
    """Canonical byte encoding of a Trace, for byte-identity assertions."""
    return json.dumps(dataclasses.asdict(trace), sort_keys=True).encode()


params_st = st.builds(
    MachineParams,
    processor_speed=st.floats(0.5, 2.0),
    process_startup=st.floats(0.0, 0.5),
    msg_startup=st.floats(0.0, 3.0),
    transmission_rate=st.floats(0.5, 5.0),
)

graph_st = st.tuples(
    st.integers(2, 18),
    st.integers(1, 4),
    st.floats(0.1, 0.7),
    st.integers(0, 999),
).map(lambda a: random_layered(a[0], min(a[1], a[0]), edge_prob=a[2], seed=a[3]))


@given(graph_st, params_st, st.sampled_from(["mh", "hlfet", "etf", "dsh"]), st.booleans())
@settings(max_examples=50, deadline=None)
def test_simulate_twice_is_byte_identical(graph, params, name, contention):
    machine = make_machine("hypercube", 4, params)
    schedule = get_scheduler(name).schedule(graph, machine)
    first = simulate(schedule, contention=contention)
    second = simulate(schedule, contention=contention)
    assert trace_bytes(first) == trace_bytes(second)


@given(st.integers(0, 9999), st.booleans())
@settings(max_examples=40, deadline=None)
def test_seeded_pipeline_is_byte_identical(seed, contention):
    # same seed all the way through: generate -> schedule -> simulate
    def replay() -> bytes:
        tg = random_layered(12, 3, seed=seed)
        machine = make_machine("mesh", 4, MachineParams(msg_startup=1.0))
        schedule = get_scheduler("mh").schedule(tg, machine)
        return trace_bytes(simulate(schedule, contention=contention))

    assert replay() == replay()


def diamond_design(x: float, scheduler: str, n_procs: int):
    """A diamond of PITS tasks (split / inc / dec / join) over input ``x``."""
    g = DataflowGraph("diamondcalc")
    g.add_storage("x", initial=x)
    g.add_task("split", program="input x\noutput a, b\na := x / 2\nb := x * 2", work=2)
    g.add_storage("a")
    g.add_storage("b")
    g.add_task("inc", program="input a\noutput p\np := a + 1", work=1)
    g.add_task("dec", program="input b\noutput q\nq := b - 1", work=1)
    g.add_storage("p")
    g.add_storage("q")
    g.add_task("join", program="input p, q\noutput y\ny := p * q", work=2)
    g.add_storage("y")
    for src, dst in [
        ("x", "split"), ("split", "a"), ("split", "b"), ("a", "inc"),
        ("b", "dec"), ("inc", "p"), ("dec", "q"), ("p", "join"),
        ("q", "join"), ("join", "y"),
    ]:
        g.connect(src, dst)
    tg = flatten(g)
    machine = make_machine("full", n_procs, MachineParams(msg_startup=1.0))
    return tg, get_scheduler(scheduler).schedule(tg, machine)


@given(
    st.floats(-100, 100, allow_nan=False),
    st.sampled_from(["mh", "etf", "roundrobin"]),
    st.integers(2, 4),
)
@settings(max_examples=25, deadline=None)
def test_threaded_matches_serial_reference(x, scheduler, n_procs):
    tg, schedule = diamond_design(x, scheduler, n_procs)
    serial = run_dataflow(tg)
    parallel = run(schedule, target="inproc")
    assert set(parallel) == set(serial.outputs)
    for var, val in serial.outputs.items():
        assert values_close(parallel[var], val), (var, val)


def test_threaded_matches_serial_on_vectors():
    g = DataflowGraph("vecstats")
    g.add_storage("v", initial=[3.0, -1.0, 4.0, 1.5])
    g.add_task(
        "scale", program="input v\noutput w\nw := v * 2", work=2
    )
    g.add_storage("w")
    g.add_task(
        "reduce",
        program="input w\noutput total, top\ntotal := sum(w)\ntop := max(w)",
        work=2,
    )
    g.add_storage("total")
    g.add_storage("top")
    for src, dst in [
        ("v", "scale"), ("scale", "w"), ("w", "reduce"),
        ("reduce", "total"), ("reduce", "top"),
    ]:
        g.connect(src, dst)
    tg = flatten(g)
    schedule = get_scheduler("mh").schedule(
        tg, make_machine("ring", 3, MachineParams(msg_startup=0.5))
    )
    serial = run_dataflow(tg)
    parallel = run(schedule, target="inproc")
    for var, val in serial.outputs.items():
        assert values_close(parallel[var], val), var
