#!/usr/bin/env python
"""The fine-grain extension in action: 1-D heat diffusion with forall.

The unrolled diffusion chain has zero task parallelism — every time step
depends on the previous one.  The paper conjectured Banger could "encompass
fine-grained parallelism through machine-independent data-parallel
constructs"; here the ``forall`` in each step node lets the environment
split every step into shards automatically, turning the serial chain into a
parallel program without the designer changing a single formula.

Run:  python examples/heat_equation.py
"""

import numpy as np

from repro.apps import heat_taskgraph, heat_taskgraph_split, reference_diffuse
from repro.codegen import get_backend, lower
from repro.graph import max_width
from repro.graph.transform import splittable_tasks
from repro.machine import MachineParams, make_machine
from repro.sched import MHScheduler, predict_speedup
from repro.sim import calibrate_works, run_dataflow
from repro.viz import render_gantt, render_speedup_chart

N, STEPS, KAPPA = 48, 3, 0.2
PARAMS = MachineParams(msg_startup=0.2, transmission_rate=100.0)


def main() -> None:
    chain = heat_taskgraph(N, STEPS, KAPPA)
    print(f"serial chain: {len(chain)} step nodes, width {max_width(chain)}")
    print(f"splittable nodes found by the analyzer: {splittable_tasks(chain)}")
    print()

    split = heat_taskgraph_split(N, STEPS, KAPPA, ways=4)
    print(f"after split_all(ways=4): {len(split)} tasks, width {max_width(split)}")
    print()

    ref = run_dataflow(chain).outputs[f"u{STEPS}"]
    got = run_dataflow(split).outputs[f"u{STEPS}"]
    print(f"results identical after splitting: {np.allclose(got, ref)}")
    print(f"numpy reference agrees: "
          f"{np.allclose(ref, reference_diffuse(_initial(), STEPS, KAPPA))}")
    print()

    chain_cal = calibrate_works(chain)
    split_cal = calibrate_works(split)
    print("speedup, serial chain (nothing to overlap):")
    print(render_speedup_chart(predict_speedup(chain_cal, (1, 2, 4), params=PARAMS)))
    print()
    print("speedup, split 4 ways:")
    print(render_speedup_chart(predict_speedup(split_cal, (1, 2, 4), params=PARAMS)))
    print()

    machine = make_machine("full", 4, PARAMS)
    schedule = MHScheduler().schedule(split_cal, machine)
    print(render_gantt(schedule))
    par = get_backend("inproc").execute(lower(schedule))
    print(f"\nthreaded run matches: {np.allclose(par.outputs[f'u{STEPS}'], ref)} "
          f"({par.messages_sent} messages)")


def _initial() -> np.ndarray:
    u0 = np.zeros(N)
    u0[N // 2] = 1.0
    return u0


if __name__ == "__main__":
    main()
