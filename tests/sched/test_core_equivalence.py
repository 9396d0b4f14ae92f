"""Golden equivalence: every registered scheduler vs its frozen reference.

The :mod:`repro.sched.core` kernel is pure optimisation — incremental ready
sets, memoized costs, O(1) tails — so every scheduler's output must stay
**byte-identical** to the pre-kernel implementation, which is frozen
verbatim in :mod:`repro.sched._reference`.  Equality is asserted on the
full JSON serialization: placements, messages, and routes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph.generators import (
    gaussian_elimination,
    lu_taskgraph,
    random_layered,
)
from repro.machine import topologies as topo
from repro.machine.machine import TargetMachine, make_machine
from repro.machine.params import IDEAL, MachineParams
from repro.sched._reference import (
    REFERENCE_SCHEDULERS,
    ReferenceDLSScheduler,
    ReferenceETFScheduler,
)
from repro.sched.listsched import DLSScheduler, ETFScheduler
from repro.sched.registry import SCHEDULERS
from repro.sched.serialize import schedule_to_json

LAN = MachineParams(
    processor_speed=2.0,
    transmission_rate=0.5,
    msg_startup=1.5,
    hop_latency=0.25,
    process_startup=0.5,
)

ALL_NAMES = sorted(SCHEDULERS)

#: exhaustive enumerates every assignment — it needs a case inside its budget
TINY_GRAPH = random_layered(6, 3, seed=0)
TINY_MACHINE = TargetMachine(topo.FullyConnected(2), IDEAL, name="full2")

#: schedulers cheap enough to sweep across many topologies / random draws
FAST = ["mh", "mh-nocontention", "ish", "etf", "dls", "mcp", "cpop", "dsh", "dsc"]


#: the non-default ``insertion`` of the two start-table schedulers, each
#: against the frozen reference taking the same argument: (live, reference)
VARIANTS = {
    "etf-insertion": (
        lambda: ETFScheduler(insertion=True),
        lambda: ReferenceETFScheduler(insertion=True),
    ),
    "dls-append": (
        lambda: DLSScheduler(insertion=False),
        lambda: ReferenceDLSScheduler(insertion=False),
    ),
}

#: everything that reads the kernel's data-ready row: the start table's two
#: schedulers in both modes, and the ``best_processor`` callers
ROW_USERS = ["etf", "dls", *sorted(VARIANTS), "hlfet", "ish", "mcp", "cpop"]


def assert_equivalent(name, graph, machine):
    make_live, make_ref = VARIANTS.get(name) or (
        SCHEDULERS[name],
        REFERENCE_SCHEDULERS[name],
    )
    live = make_live().schedule(graph, machine)
    ref = make_ref().schedule(graph, machine)
    assert schedule_to_json(live) == schedule_to_json(ref), (
        f"{name} diverged from the pre-kernel reference on "
        f"{graph.name} x {machine.name}"
    )


def test_registries_cover_the_same_names():
    assert sorted(REFERENCE_SCHEDULERS) == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matches_reference_on_lu(name):
    """The paper's Fig-1 LU decomposition graph on an ideal hypercube."""
    if name == "exhaustive":
        assert_equivalent(name, TINY_GRAPH, TINY_MACHINE)
        return
    graph = lu_taskgraph(5)
    assert_equivalent(name, graph, make_machine("hypercube", 8))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matches_reference_on_layered_lan(name):
    """A random layered DAG on a 3x3 mesh with non-ideal LAN-ish params."""
    if name == "exhaustive":
        assert_equivalent(name, TINY_GRAPH, TINY_MACHINE)
        return
    graph = random_layered(40, 5, seed=1)
    assert_equivalent(name, graph, TargetMachine(topo.Mesh2D(3, 3), LAN, name="mesh9"))


@pytest.mark.parametrize("name", ROW_USERS)
def test_matches_reference_at_mid_size(name):
    """Ready sets tens of tasks wide on 16 processors: rows sit in the start
    table across many placements, every one refreshing a column of them."""
    graph = random_layered(200, 10, edge_prob=0.1, seed=3)
    assert_equivalent(name, graph, make_machine("hypercube", 16, LAN))


@pytest.mark.parametrize("name", ROW_USERS)
def test_matches_reference_when_everything_ties(name):
    """Equal works and free messages: every start ties across processors
    and tasks, so only the ``(start, proc)`` and name tie-breaks decide."""
    graph = random_layered(
        60, 6, edge_prob=0.3, seed=5, work_range=(2.0, 2.0), comm_range=(1.0, 1.0)
    )
    assert_equivalent(name, graph, make_machine("hypercube", 8, IDEAL))


@pytest.mark.parametrize("name", FAST + sorted(VARIANTS))
@pytest.mark.parametrize(
    "topology",
    [
        topo.FullyConnected(4),
        topo.Bus(4),  # shared medium: all links alias one timeline in MH
        topo.Star(5),
        topo.Ring(6),
        topo.LinearArray(4),
        topo.Hypercube(3),
        topo.Mesh2D(2, 3),
        topo.Torus2D(3, 3),
        topo.Mesh3D(2, 2, 2),
        topo.ChordalRing(8, chord=3),
        topo.BalancedTree(2, 2),
    ],
    ids=lambda t: t.name,
)
def test_matches_reference_across_topologies(name, topology):
    graph = gaussian_elimination(5)
    assert_equivalent(name, graph, TargetMachine(topology, LAN))


graph_st = st.tuples(
    st.integers(2, 24),
    st.integers(1, 5),
    st.floats(0.0, 0.8),
    st.integers(0, 9999),
).map(lambda a: random_layered(a[0], min(a[1], a[0]), edge_prob=a[2], seed=a[3]))

machine_st = st.tuples(
    st.sampled_from(["hypercube", "mesh", "star", "ring", "bus", "full"]),
    st.booleans(),
).map(
    lambda fb: make_machine(
        fb[0],
        {"hypercube": 4, "mesh": 4, "star": 5, "ring": 4, "bus": 4, "full": 4}[fb[0]],
        LAN if fb[1] else IDEAL,
    )
)


@given(graph_st, machine_st, st.sampled_from(FAST + sorted(VARIANTS)))
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_random_graphs(graph, machine, name):
    assert_equivalent(name, graph, machine)
