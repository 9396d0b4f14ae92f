"""The four machine parameters of the paper, plus conversion helpers.

    "A program is tailored to a certain machine by considering the following
    characteristics of the target machine:
      1. Processor speed
      2. Process startup time
      3. Message passing startup time
      4. Message transmission speed"

:class:`MachineParams` holds exactly these four numbers (plus an optional
per-hop switching latency, an extension for modern wormhole/store-and-forward
distinctions, defaulting to 0 so the paper's model is the default).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError


@dataclass(frozen=True)
class MachineParams:
    """Scalar performance characteristics of a target machine.

    Parameters
    ----------
    processor_speed:
        Operations per time unit; a task with weight ``work`` executes in
        ``process_startup + work / processor_speed``.
    process_startup:
        Fixed cost to launch a task on a processor.
    msg_startup:
        Fixed software overhead per message (the alpha of the classic
        alpha–beta model).
    transmission_rate:
        Data units per time unit moved over one link (the 1/beta).
    hop_latency:
        Extra fixed cost per link crossed (0 = the paper's model, where only
        the store-and-forward ``hops * size / rate`` term grows with
        distance).
    """

    processor_speed: float = 1.0
    process_startup: float = 0.0
    msg_startup: float = 0.0
    transmission_rate: float = 1.0
    hop_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.processor_speed <= 0:
            raise MachineError(f"processor_speed must be > 0, got {self.processor_speed}")
        if self.transmission_rate <= 0:
            raise MachineError(f"transmission_rate must be > 0, got {self.transmission_rate}")
        for field_name in ("process_startup", "msg_startup", "hop_latency"):
            value = getattr(self, field_name)
            if value < 0:
                raise MachineError(f"{field_name} must be >= 0, got {value}")

    # ------------------------------------------------------------------ #
    def exec_time(self, work: float) -> float:
        """Wall time to run a task of ``work`` operations on one processor."""
        if work < 0:
            raise MachineError(f"work must be >= 0, got {work}")
        return self.process_startup + work / self.processor_speed

    def comm_time(self, size: float, hops: int) -> float:
        """Wall time to move ``size`` data units across ``hops`` links.

        Zero hops (same processor) costs nothing: Banger charges only for
        real message passing.  Store-and-forward: each link retransmits the
        whole message.
        """
        if size < 0:
            raise MachineError(f"message size must be >= 0, got {size}")
        if hops < 0:
            raise MachineError(f"hops must be >= 0, got {hops}")
        if hops == 0:
            return 0.0
        return (
            self.msg_startup
            + hops * self.hop_latency
            + hops * size / self.transmission_rate
        )

    def mean_comm_time(self, size: float, avg_hops: float) -> float:
        """:meth:`comm_time`'s affine model at a fractional hop count — a
        mean over processor pairs, where ``comm_time`` wants whole hops."""
        if avg_hops == 0:
            return 0.0
        return (
            self.msg_startup
            + avg_hops * self.hop_latency
            + avg_hops * size / self.transmission_rate
        )

    def scaled(self, factor: float) -> "MachineParams":
        """A machine with ``factor``× faster processors (comm unchanged)."""
        if factor <= 0:
            raise MachineError(f"scale factor must be > 0, got {factor}")
        return MachineParams(
            processor_speed=self.processor_speed * factor,
            process_startup=self.process_startup,
            msg_startup=self.msg_startup,
            transmission_rate=self.transmission_rate,
            hop_latency=self.hop_latency,
        )


#: A frictionless machine: unit-speed processors, free messages.  Useful as
#: the machine-independent baseline (schedules then cost pure graph time).
IDEAL = MachineParams()

#: Parameters loosely shaped like the 1990s distributed-memory machines the
#: paper targeted: message startup dwarfs per-unit transmission cost.
NCUBE_LIKE = MachineParams(
    processor_speed=1.0,
    process_startup=0.5,
    msg_startup=5.0,
    transmission_rate=2.0,
)

#: An iPSC-flavoured preset: slightly faster links, heavier task launch.
IPSC_LIKE = MachineParams(
    processor_speed=1.0,
    process_startup=1.0,
    msg_startup=8.0,
    transmission_rate=4.0,
)

#: Workstations on a LAN: fast processors, brutal message startup — the
#: regime where grain packing is mandatory.
LAN_WORKSTATIONS = MachineParams(
    processor_speed=4.0,
    process_startup=0.2,
    msg_startup=50.0,
    transmission_rate=1.0,
)

#: A tightly coupled shared-memory-ish box: messages almost free.
TIGHT_SMP = MachineParams(
    processor_speed=1.0,
    process_startup=0.01,
    msg_startup=0.05,
    transmission_rate=100.0,
)

#: Name -> preset, for the CLI and parameter-sweep benchmarks.
PRESETS: dict[str, MachineParams] = {
    "ideal": IDEAL,
    "ncube": NCUBE_LIKE,
    "ipsc": IPSC_LIKE,
    "lan": LAN_WORKSTATIONS,
    "smp": TIGHT_SMP,
}
