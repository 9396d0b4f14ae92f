#!/usr/bin/env python
"""An embarrassingly parallel science code: Monte-Carlo estimation of pi.

Shows the full calibrate → schedule → predict → execute → generate loop on
the widest app in the repository: eight PITS workers, each with its own
deterministic random stream, reduced to one estimate.

Run:  python examples/montecarlo_pi.py
"""

import math

from repro.apps import montecarlo_taskgraph, reference_pi
from repro.codegen import generate, run, run_generated
from repro.machine import MachineParams, make_machine
from repro.sched import MHScheduler, predict_speedup
from repro.sim import calibrate_works, simulate
from repro.viz import render_gantt, render_speedup_chart, render_trace_gantt

WORKERS = 8
TRIALS = 300
PARAMS = MachineParams(msg_startup=0.5, transmission_rate=10.0)


def main() -> None:
    tg = montecarlo_taskgraph(WORKERS, TRIALS)

    # trial-run once so task weights are measured, not guessed
    tg = calibrate_works(tg)
    print(f"calibrated worker weight: {tg.work('worker0'):.0f} ops; "
          f"reduce: {tg.work('reduce'):.0f} ops\n")

    machine = make_machine("hypercube", 8, PARAMS)
    schedule = MHScheduler().schedule(tg, machine)
    print(render_gantt(schedule))
    print()

    print(render_speedup_chart(predict_speedup(tg, (1, 2, 4, 8), params=PARAMS)))
    print()

    trace = simulate(schedule, contention=True)
    print(f"discrete-event replay with link contention: makespan "
          f"{trace.makespan():.2f} (static prediction {schedule.makespan():.2f})")
    print()

    par = run(schedule, target="inproc")
    estimate = float(par["pi_est"])
    print(f"threaded run: pi ~= {estimate}  (|err| = {abs(estimate - math.pi):.4f})")
    assert estimate == reference_pi(WORKERS, TRIALS)

    generated = generate(schedule, target="threads")
    out = run_generated(generated)
    print(f"generated program agrees: {float(out['pi_est']) == estimate}")


if __name__ == "__main__":
    main()
