"""Greedy case minimization: turn a fuzz failure into its smallest witness.

``shrink(case, fails)`` repeatedly proposes *smaller* candidate cases and
keeps any candidate on which the failing oracle still fails, restarting
from the reduced case (first-improvement greedy descent).  Candidates are
proposed most-aggressive first — drop half the tasks before dropping one —
so typical failures collapse in a few dozen oracle evaluations.

Graph-case reductions: drop task chunks / single tasks (with incident
edges), drop single edges, shrink the machine within its topology family,
normalize task works and edge sizes to 1, and simplify any pinned fault
scenario (drop single events, silence duration noise, drop an emptied
scenario entirely).  PITS-case reductions: delete
body statements (only candidates that still pass static analysis are
proposed, so the shrinker cannot wander into "fails because it no longer
parses" territory) and simplify inputs toward 0 and 1.

Every proposed candidate is checked at most once per descent step and the
total number of oracle evaluations is capped (``max_checks``), so shrinking
is always bounded — a corpus write never hangs a CI run.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator

from repro.calc.analyze import errors as static_errors
from repro.conformance.cases import GRAPH, PITS, Case
from repro.machine import MachineParams, build_topology
from repro.machine.machine import TargetMachine

#: Default cap on oracle evaluations during one shrink.
DEFAULT_MAX_CHECKS = 400

#: Per-family ladders of smaller-but-still-legal processor counts.
_FAMILY_LADDER: dict[str, tuple[int, ...]] = {
    "full": (8, 6, 4, 3, 2),
    "ring": (8, 5, 4, 3),
    "star": (8, 4, 3),
    "linear": (8, 4, 3, 2),
    "bus": (8, 4, 2),
    "hypercube": (8, 4, 2),
    "mesh": (9, 4),
    "torus": (9, 4),
    "tree": (7, 3),
    "chordal": (8, 5),
}


def _clone(doc: Any) -> Any:
    return json.loads(json.dumps(doc))


def shrink(
    case: Case,
    fails: Callable[[Case], bool],
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> tuple[Case, int]:
    """Minimize ``case`` while ``fails`` stays true.

    Returns ``(smallest failing case found, oracle evaluations spent)``.
    ``case`` itself must fail; the result always fails.
    """
    current = case
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in _candidates(current):
            checks += 1
            if fails(candidate):
                current = candidate
                improved = True
                break
            if checks >= max_checks:
                break
    return current, checks


# --------------------------------------------------------------------- #
# candidate proposal
# --------------------------------------------------------------------- #
def _candidates(case: Case) -> Iterator[Case]:
    if case.kind == GRAPH:
        yield from _graph_candidates(case)
    else:
        yield from _pits_candidates(case)


def _graph_candidates(case: Case) -> Iterator[Case]:
    payload = case.payload
    graph = payload["graph"]
    names = [t["name"] for t in graph["tasks"]]

    # 1. drop chunks of tasks, halving first (delta-debugging style)
    for frac in (2, 4):
        size = len(names) // frac
        if size >= 2:
            for lo in range(0, len(names), size):
                drop = set(names[lo:lo + size])
                if len(drop) < len(names):
                    yield _with_tasks_dropped(case, drop)
    # 2. drop single tasks
    if len(names) > 1:
        for name in names:
            yield _with_tasks_dropped(case, {name})
    # 3. drop single edges
    for i in range(len(graph["edges"])):
        p = _clone(payload)
        del p["graph"]["edges"][i]
        yield Case(GRAPH, p)
    # 4. shrink the machine within its family (factor-free: heterogeneity
    #    factors index the old processor count, so they are dropped along
    #    with any scenario events that target now-missing procs or links)
    machine = payload["machine"]
    family = machine["topology"].get("family", "")
    n = machine["topology"]["n_procs"]
    for smaller in _FAMILY_LADDER.get(family, ()):
        if smaller < n:
            p = _clone(payload)
            topology = build_topology(family, smaller)
            p["machine"] = TargetMachine(
                topology,
                MachineParams(**machine["params"]),
            ).to_dict()
            if "scenario" in p:
                p["scenario"]["events"] = [
                    e for e in p["scenario"]["events"]
                    if (e.get("proc") is None or e["proc"] < smaller)
                    and (
                        e.get("link") is None
                        or tuple(sorted(e["link"])) in topology.links
                    )
                ]
            yield Case(GRAPH, p)
    # 5. normalize weights: all works to 1, then all edge sizes to 1
    if any(t["work"] != 1.0 for t in graph["tasks"]):
        p = _clone(payload)
        for t in p["graph"]["tasks"]:
            t["work"] = 1.0
        yield Case(GRAPH, p)
    if any(e["size"] != 1.0 for e in graph["edges"]):
        p = _clone(payload)
        for e in p["graph"]["edges"]:
            e["size"] = 1.0
        yield Case(GRAPH, p)
    # 6. simplify the fault scenario: drop single events, silence the noise
    scenario = payload.get("scenario")
    if scenario is not None:
        for i in range(len(scenario["events"])):
            p = _clone(payload)
            del p["scenario"]["events"][i]
            yield Case(GRAPH, p)
        if scenario.get("duration_noise"):
            p = _clone(payload)
            p["scenario"]["duration_noise"] = 0.0
            yield Case(GRAPH, p)
        if not scenario["events"] and not scenario.get("duration_noise"):
            p = _clone(payload)
            del p["scenario"]
            yield Case(GRAPH, p)


def _with_tasks_dropped(case: Case, drop: set[str]) -> Case:
    p = _clone(case.payload)
    g = p["graph"]
    g["tasks"] = [t for t in g["tasks"] if t["name"] not in drop]
    g["edges"] = [
        e for e in g["edges"] if e["src"] not in drop and e["dst"] not in drop
    ]
    kept = {t["name"] for t in g["tasks"]}
    g["graph_inputs"] = {
        var: [c for c in consumers if c in kept]
        for var, consumers in (g.get("graph_inputs") or {}).items()
        if any(c in kept for c in consumers)
    }
    g["graph_outputs"] = {
        var: producer
        for var, producer in (g.get("graph_outputs") or {}).items()
        if producer in kept
    }
    return Case(GRAPH, p)


def _pits_candidates(case: Case) -> Iterator[Case]:
    payload = case.payload
    lines = payload["source"].splitlines()
    decl = {"task", "input", "output", "local"}

    # 1. delete one body statement at a time (never a declaration line);
    #    only statically clean programs are proposed
    for i, line in enumerate(lines):
        first = line.strip().split(" ", 1)[0].rstrip(":")
        if not line.strip() or first in decl:
            continue
        source = "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        if static_errors(source):
            continue
        p = _clone(payload)
        p["source"] = source
        yield Case(PITS, p)
    # 2. simplify scalar inputs down the ladder 0 < 1 < integers < the rest
    #    (only strictly simpler values, or 0 and 1 would trade places forever)
    for name, value in payload["inputs"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        for simpler in (0.0, 1.0, float(int(value))):
            if simpler == value:
                break
            p = _clone(payload)
            p["inputs"][name] = simpler
            yield Case(PITS, p)
