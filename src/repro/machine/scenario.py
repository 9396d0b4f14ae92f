"""Fault/straggler scenarios: the seeded script of what goes wrong at run time.

A :class:`FaultScenario` is the dynamic half of the machine model: the
static :class:`~repro.machine.machine.TargetMachine` says what the fleet
*should* do, the scenario says what actually happens — processors fail or
slow down at timestamps, links fail or lose bandwidth, and task durations
carry lognormal noise.  Scenarios are plain canonical-JSON documents
(:func:`repro.graph.serialize.canonical_json`), so a failure observed under
one replays bit-for-bit anywhere, and they are *degradation-only*: slowdown
factors are ``>= 1`` and noise multipliers are ``>= 1``, because the
nominal cost model is the contract the static schedulers promised ("never
later than planned") and the dynamic regime only breaks it in one
direction.  That one-sidedness is what keeps the reactive rescheduler's
pinned observed times feasible under the nominal SCH floor rules.

Determinism under injected randomness: the per-task duration noise is keyed
by ``(noise_seed, task name)`` through :class:`random.Random`'s string
seeding (SHA-512 based, platform-stable), so the multiplier a task draws
does not depend on event order, scheduling, or which processor it landed
on — resimulating is byte-identical, and re-mapping a task does not reroll
its luck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from repro.errors import MachineError, malformed_as
from repro.machine.machine import TargetMachine

PROC_FAIL = "proc_fail"
PROC_SLOWDOWN = "proc_slowdown"
LINK_FAIL = "link_fail"
LINK_SLOWDOWN = "link_slowdown"

EVENT_KINDS = (PROC_FAIL, PROC_SLOWDOWN, LINK_FAIL, LINK_SLOWDOWN)

#: Scenario profiles :func:`seeded_scenario` can draw.
PROFILES = ("straggler", "failure", "link", "combined")


@dataclass(frozen=True)
class FaultEvent:
    """One timed injection: a processor/link failing or slowing down.

    ``factor`` is the slowdown multiplier for the two ``*_slowdown`` kinds
    (``>= 1``; a later slowdown event on the same target *replaces* the
    current multiplier, so ``factor=1.0`` means "recovered to nominal").
    Failures are permanent.
    """

    time: float
    kind: str
    proc: int | None = None
    link: tuple[int, int] | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise MachineError(
                f"unknown fault event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        if self.time < 0:
            raise MachineError(f"fault event time must be >= 0, got {self.time!r}")
        if self.kind in (PROC_FAIL, PROC_SLOWDOWN):
            if self.proc is None or self.proc < 0:
                raise MachineError(f"{self.kind} event needs a processor index")
        else:
            if self.link is None:
                raise MachineError(f"{self.kind} event needs a link (a, b)")
            a, b = self.link
            object.__setattr__(self, "link", (min(a, b), max(a, b)))
        if self.kind in (PROC_SLOWDOWN, LINK_SLOWDOWN) and self.factor < 1.0:
            raise MachineError(
                f"{self.kind} factor must be >= 1 (degradation-only model), "
                f"got {self.factor!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.proc is not None:
            doc["proc"] = self.proc
        if self.link is not None:
            doc["link"] = list(self.link)
        if self.kind in (PROC_SLOWDOWN, LINK_SLOWDOWN):
            doc["factor"] = self.factor
        return doc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        link = data.get("link")
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            proc=(int(data["proc"]) if data.get("proc") is not None else None),
            link=(tuple(int(x) for x in link) if link is not None else None),
            factor=float(data.get("factor", 1.0)),
        )

    def _sort_key(self) -> tuple:
        return (
            self.time,
            EVENT_KINDS.index(self.kind),
            -1 if self.proc is None else self.proc,
            self.link or (-1, -1),
            self.factor,
        )


@dataclass(frozen=True)
class FaultScenario:
    """A canonical, seeded script of run-time faults for one simulation.

    ``duration_noise`` is the sigma of a one-sided lognormal stretch applied
    to every task duration: multiplier ``exp(|N(0, sigma)|) >= 1``, drawn
    deterministically per task from ``(noise_seed, task)``.
    """

    events: tuple[FaultEvent, ...] = ()
    duration_noise: float = 0.0
    noise_seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=FaultEvent._sort_key))
        object.__setattr__(self, "events", events)
        if self.duration_noise < 0:
            raise MachineError(
                f"duration_noise must be >= 0, got {self.duration_noise!r}"
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "FaultScenario":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.events and self.duration_noise == 0.0

    @property
    def has_failures(self) -> bool:
        """True when some event can strand tasks (proc or link failure)."""
        return any(e.kind in (PROC_FAIL, LINK_FAIL) for e in self.events)

    def failed_procs(self, at: float = math.inf) -> set[int]:
        """Processors whose failure time is ``<= at``."""
        return {
            e.proc
            for e in self.events
            if e.kind == PROC_FAIL and e.proc is not None and e.time <= at
        }

    def noise_multiplier(self, task: str) -> float:
        """The deterministic ``>= 1`` duration stretch for one task."""
        if self.duration_noise == 0.0:
            return 1.0
        rng = random.Random(f"fault-noise:{self.noise_seed}:{task}")
        return math.exp(abs(rng.gauss(0.0, self.duration_noise)))

    def validate_for(self, machine: TargetMachine) -> None:
        """Raise :class:`MachineError` if an event targets a processor or
        link the machine does not have."""
        links = {(min(a, b), max(a, b)) for a, b in machine.topology.links}
        for event in self.events:
            if event.proc is not None and event.proc >= machine.n_procs:
                raise MachineError(
                    f"scenario event targets processor {event.proc}, machine "
                    f"{machine.name!r} has {machine.n_procs}"
                )
            if event.link is not None and event.link not in links:
                raise MachineError(
                    f"scenario event targets link {event.link}, which is not "
                    f"a link of machine {machine.name!r}"
                )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "fault-scenario",
            "name": self.name,
            "events": [e.to_dict() for e in self.events],
            "duration_noise": self.duration_noise,
            "noise_seed": self.noise_seed,
        }

    @classmethod
    @malformed_as(MachineError, "fault-scenario")
    def from_dict(cls, data: dict[str, Any]) -> "FaultScenario":
        if data.get("type") != "fault-scenario":
            raise MachineError(
                f"not a fault-scenario document (type={data.get('type')!r})"
            )
        return cls(
            events=tuple(
                FaultEvent.from_dict(e) for e in data.get("events", [])
            ),
            duration_noise=float(data.get("duration_noise", 0.0)),
            noise_seed=int(data.get("noise_seed", 0)),
            name=str(data.get("name", "")),
        )

    def content_hash(self) -> str:
        from repro.graph.serialize import fingerprint

        return fingerprint(self.to_dict())


def seeded_scenario(
    seed: int,
    machine: TargetMachine,
    horizon: float,
    profile: str = "combined",
) -> FaultScenario:
    """Draw a deterministic scenario sized to one machine and time horizon.

    ``horizon`` should be on the order of the schedule's makespan — event
    timestamps land in its first two thirds so they actually hit running
    work.  Profiles: ``straggler`` (processor slowdowns only), ``failure``
    (processor failures, never all processors), ``link`` (link slowdowns
    and failures), ``combined`` (a mix).  The same ``(seed, machine
    content, horizon, profile)`` always yields the same scenario.
    """
    if profile not in PROFILES:
        raise MachineError(f"unknown scenario profile {profile!r}; "
                           f"expected one of {PROFILES}")
    horizon = max(float(horizon), 1e-9)
    rng = random.Random(
        f"fault-scenario:{seed}:{machine.content_hash()}:{profile}"
    )
    links = sorted((min(a, b), max(a, b)) for a, b in machine.topology.links)
    events: list[FaultEvent] = []

    def when() -> float:
        return round(rng.uniform(0.0, 2.0 * horizon / 3.0), 6)

    def stragglers(n: int) -> None:
        for proc in rng.sample(range(machine.n_procs), min(n, machine.n_procs)):
            events.append(FaultEvent(
                time=when(), kind=PROC_SLOWDOWN, proc=proc,
                factor=round(rng.uniform(2.5, 10.0), 3),
            ))

    def failures(n: int) -> None:
        # Never fail every processor: a dead fleet makes every policy
        # equally useless and the reactive-safety invariant degenerate.
        limit = min(n, machine.n_procs - 1)
        for proc in rng.sample(range(machine.n_procs), max(limit, 0)):
            events.append(FaultEvent(time=when(), kind=PROC_FAIL, proc=proc))

    def link_events(n: int) -> None:
        if not links:
            return
        for link in rng.sample(links, min(n, len(links))):
            if rng.random() < 0.5:
                events.append(FaultEvent(time=when(), kind=LINK_FAIL, link=link))
            else:
                events.append(FaultEvent(
                    time=when(), kind=LINK_SLOWDOWN, link=link,
                    factor=round(rng.uniform(2.0, 8.0), 3),
                ))

    if profile == "straggler":
        stragglers(rng.randint(1, 2))
    elif profile == "failure":
        failures(rng.randint(1, 2))
    elif profile == "link":
        link_events(rng.randint(1, 2))
    else:
        stragglers(rng.randint(0, 2))
        if rng.random() < 0.5:
            failures(1)
        if rng.random() < 0.5:
            link_events(1)
    noise = round(rng.choice((0.0, rng.uniform(0.05, 0.3))), 4)
    return FaultScenario(
        events=tuple(events),
        duration_noise=noise,
        noise_seed=seed,
        name=f"{profile}-{seed}",
    )
