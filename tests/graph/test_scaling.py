"""Complexity guard: document -> DataflowGraph -> TaskGraph stays linear.

``connect`` and ``add_edge`` once checked for a duplicate by scanning every
arc in the graph, which made building a graph O(E^2) and put ~85 % of an
edit's latency in the graph containers.  Absolute times are machine-bound;
the ratio between two sizes on the same machine is not.  At a fixed edge
probability ``random_layered`` grows its edges with n^2, so the input is
measured in nodes + arcs, not tasks: 300 -> 1200 tasks is ~12x the input,
which costs ~12x when linear and ~145x when quadratic.  The guard sits at
the geometric middle, ``ratio ** 1.5``.
"""

import time

from repro.graph.generators import as_dataflow, random_layered
from repro.graph.hierarchy import flatten
from repro.graph.serialize import (
    dataflow_from_dict,
    dataflow_to_dict,
    taskgraph_from_dict,
    taskgraph_to_dict,
)


def inflate_and_flatten(n_tasks: int) -> tuple[int, float]:
    """(nodes + arcs, best-of-3 CPU seconds) of one request's graph building."""
    design = as_dataflow(random_layered(n_tasks, 20, edge_prob=0.03, seed=7))
    design_doc = dataflow_to_dict(design)
    flat_doc = taskgraph_to_dict(flatten(design))
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        tg = flatten(dataflow_from_dict(design_doc))
        taskgraph_from_dict(flat_doc)
        best = min(best, time.process_time() - t0)
    assert len(tg) == n_tasks
    return len(design) + len(design.arcs), best


def test_cost_grows_with_the_input_not_its_square():
    small_size, small = inflate_and_flatten(300)
    large_size, large = inflate_and_flatten(1200)
    growth = large_size / small_size
    assert growth > 8
    assert large < small * growth ** 1.5, (
        f"{small_size} nodes+arcs: {small * 1e3:.1f} ms, {large_size}: "
        f"{large * 1e3:.1f} ms — {large / small:.0f}x the time for {growth:.1f}x "
        f"the input (linear ~{growth:.0f}x, quadratic ~{growth ** 2:.0f}x)"
    )
