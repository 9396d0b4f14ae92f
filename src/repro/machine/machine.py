"""The target machine: scalar parameters bound to an interconnection graph.

A :class:`TargetMachine` is the single cost model shared by the static
schedulers (:mod:`repro.sched`) and the discrete-event simulator
(:mod:`repro.sim`), which is what makes the cross-validation between
predicted and simulated schedules exact in the contention-free case.  Its
distances and routes are read from the compiled tables of
:mod:`repro.machine.compiled` — a function of the machine document, so two
machines with one :meth:`~TargetMachine.content_hash` cost and route alike.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import MachineError, malformed_as
from repro.machine.compiled import CompiledTopology, cached_compiled, compiled_for
from repro.machine.params import IDEAL, MachineParams
from repro.machine.topologies import build_topology, routing_topology
from repro.machine.topology import CustomTopology, Topology


class TargetMachine:
    """A parallel computer: ``params`` + ``topology``.

    Parameters
    ----------
    topology:
        The interconnection graph (see :mod:`repro.machine.topologies`).
    params:
        The paper's four scalar characteristics (defaults to the ideal
        machine: unit-speed processors, free communication).
    name:
        Display name; defaults to the topology's.
    proc_speed_factors:
        Optional per-processor relative speeds in ``(0, 1]`` — ``params``
        describes the machine at its *nominal best* and a factor below 1.0
        marks a permanently slower processor.  The static schedulers plan
        on nominal times; only the dynamic simulator
        (:mod:`repro.sim.dynamic`) and the reactive rescheduler consume the
        factors, so a uniform machine (all 1.0, the default) keeps every
        existing schedule and content hash byte-identical.
    link_bandwidth_factors:
        Optional per-link relative bandwidths in ``(0, 1]``, keyed by the
        normalized link ``(min(a, b), max(a, b))``.  Same contract: nominal
        is the ceiling, factors only degrade, uniform maps hash-identically.
    """

    def __init__(
        self,
        topology: Topology,
        params: MachineParams = IDEAL,
        name: str = "",
        proc_speed_factors: "Sequence[float] | None" = None,
        link_bandwidth_factors: "dict[tuple[int, int], float] | None" = None,
    ):
        topology.validate()
        self.topology = topology
        self.params = params
        self.name = name or topology.name
        self.proc_speed_factors = self._check_speed_factors(proc_speed_factors)
        self.link_bandwidth_factors = self._check_bandwidth_factors(
            link_bandwidth_factors
        )
        self._hash_cache: tuple[int, str] | None = None

    def _check_speed_factors(
        self, factors: "Sequence[float] | None"
    ) -> tuple[float, ...] | None:
        """Normalize: uniform (all 1.0 / absent) is stored as ``None``."""
        if factors is None:
            return None
        values = tuple(float(f) for f in factors)
        if len(values) != self.topology.n_procs:
            raise MachineError(
                f"proc_speed_factors has {len(values)} entries for "
                f"{self.topology.n_procs} processors"
            )
        for proc, f in enumerate(values):
            if not 0.0 < f <= 1.0:
                raise MachineError(
                    f"proc_speed_factors[{proc}] = {f!r}; factors are relative "
                    "to the nominal params and must be in (0, 1]"
                )
        return None if all(f == 1.0 for f in values) else values

    def _check_bandwidth_factors(
        self, factors: "dict[tuple[int, int], float] | None"
    ) -> dict[tuple[int, int], float] | None:
        if not factors:
            return None
        links = {(min(a, b), max(a, b)) for a, b in self.topology.links}
        normalized: dict[tuple[int, int], float] = {}
        for (a, b), f in factors.items():
            link = (min(int(a), int(b)), max(int(a), int(b)))
            if link not in links:
                raise MachineError(
                    f"link_bandwidth_factors names link {link}, which is not "
                    f"a link of topology {self.topology.name!r}"
                )
            f = float(f)
            if not 0.0 < f <= 1.0:
                raise MachineError(
                    f"link_bandwidth_factors[{link}] = {f!r}; factors are "
                    "relative to the nominal params and must be in (0, 1]"
                )
            if f != 1.0:
                normalized[link] = f
        return normalized or None

    # ------------------------------------------------------------------ #
    # the cost model
    # ------------------------------------------------------------------ #
    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    def procs(self) -> range:
        return range(self.n_procs)

    def exec_time(self, work: float) -> float:
        """Wall time for a task of ``work`` operations (any processor)."""
        return self.params.exec_time(work)

    def _tables(self, *procs: int) -> CompiledTopology:
        """The compiled route tables, after range-checking ``procs`` (a flat
        ``src * n + dst`` index would alias an out-of-range processor).  An
        uncounted peek: only a read that has to compile is a counted
        ``compiled_for`` lookup, so ``compiled_misses`` counts compilations."""
        for proc in procs:
            self.topology._check_proc(proc)
        return cached_compiled(self.content_hash()) or compiled_for(self)

    def comm_cost(self, src_proc: int, dst_proc: int, size: float) -> float:
        """Wall time to move ``size`` units between two processors.

        Zero when ``src_proc == dst_proc`` — co-located tasks share memory.
        """
        hops = self._tables(src_proc, dst_proc).hops(src_proc, dst_proc)
        return self.params.comm_time(size, hops)

    def mean_comm_cost(self, size: float) -> float:
        """Average cost of moving ``size`` units between two distinct
        random processors — the machine-aware edge weight used when
        computing scheduling priorities before placement is known."""
        if self.n_procs == 1:
            return 0.0
        return self.params.mean_comm_time(size, self._tables().average_distance())

    def route(self, src_proc: int, dst_proc: int) -> list[int]:
        """Processor sequence ``[src_proc, ..., dst_proc]`` a message follows."""
        return list(self._tables(src_proc, dst_proc).route(src_proc, dst_proc))

    def diameter(self) -> int:
        """Longest route, in links."""
        return self._tables().diameter()

    @property
    def shared_medium(self) -> bool:
        """True when every message contends for one medium (a bus)."""
        return self._tables().shared_medium

    # ------------------------------------------------------------------ #
    # heterogeneity (consumed by the dynamic regime only)
    # ------------------------------------------------------------------ #
    def speed_factor(self, proc: int) -> float:
        """Relative speed of ``proc`` (1.0 nominal; below 1.0 is slower)."""
        if self.proc_speed_factors is None:
            return 1.0
        return self.proc_speed_factors[proc]

    def bandwidth_factor(self, a: int, b: int) -> float:
        """Relative bandwidth of link ``(a, b)`` (1.0 nominal)."""
        if self.link_bandwidth_factors is None:
            return 1.0
        return self.link_bandwidth_factors.get((min(a, b), max(a, b)), 1.0)

    @property
    def is_uniform(self) -> bool:
        """True when every processor and link runs at nominal speed."""
        return self.proc_speed_factors is None and self.link_bandwidth_factors is None

    def uniform(self) -> "TargetMachine":
        """This machine with all heterogeneity factors stripped to nominal.

        Used by the ``dynamic_null`` oracle: the factor-free view is the
        machine the static cost model already describes, so the empty-
        scenario dynamic replay must match the static replay byte for byte.
        """
        if self.is_uniform:
            return self
        return TargetMachine(self.topology, self.params, name=self.name)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "type": "machine",
            "name": self.name,
            "params": {
                "processor_speed": self.params.processor_speed,
                "process_startup": self.params.process_startup,
                "msg_startup": self.params.msg_startup,
                "transmission_rate": self.params.transmission_rate,
                "hop_latency": self.params.hop_latency,
            },
            "topology": {
                "family": self.topology.family,
                "name": self.topology.name,
                "n_procs": self.topology.n_procs,
                "links": [list(l) for l in self.topology.links],
            },
        }
        # Heterogeneity factors are emitted only when non-uniform so every
        # pre-existing machine document — and therefore every content hash,
        # cache key, and corpus case id — stays byte-identical.
        if self.proc_speed_factors is not None:
            doc["proc_speed_factors"] = list(self.proc_speed_factors)
        if self.link_bandwidth_factors is not None:
            doc["link_bandwidth_factors"] = [
                [a, b, f]
                for (a, b), f in sorted(self.link_bandwidth_factors.items())
            ]
        return doc

    def content_hash(self) -> str:
        """Stable fingerprint of params + topology — the machine half of the
        scheduling cache key (see :mod:`repro.sched.service`).

        Cached per topology revision: params and name are frozen after
        construction, so the fingerprint only changes when the link set does
        (``Topology._invalidate_caches`` bumps ``_revision``).  This makes the
        per-kernel-build compiled-table lookup O(1) instead of re-serializing
        the whole machine document.
        """
        revision = self.topology._revision
        cached = self._hash_cache
        if cached is not None and cached[0] == revision:
            return cached[1]
        from repro.graph.serialize import fingerprint

        digest = fingerprint(self.to_dict())
        self._hash_cache = (revision, digest)
        return digest

    @classmethod
    @malformed_as(MachineError, "machine")
    def from_dict(cls, data: dict[str, Any]) -> "TargetMachine":
        """Rebuild a machine from its document.

        The document decides the router (:func:`routing_topology`): its
        family's analytic one when the links are that family's at that size,
        BFS otherwise.  Either way the document's ``family`` and ``name`` are
        kept, so a reloaded mesh still drives mesh sweeps and
        ``from_dict(d).to_dict() == d``.
        """
        if data.get("type") != "machine":
            raise MachineError(f"not a machine document (type={data.get('type')!r})")
        params = MachineParams(**data.get("params", {}))
        topo_doc = data.get("topology", {})
        n_procs = topo_doc["n_procs"]
        family = topo_doc.get("family", CustomTopology.family)
        topo = routing_topology(
            family, n_procs, [tuple(l) for l in topo_doc.get("links", [])]
        )
        topo.family = family
        topo.name = topo_doc.get("name") or f"custom({n_procs})"
        speeds = data.get("proc_speed_factors")
        bandwidths = data.get("link_bandwidth_factors")
        return cls(
            topo,
            params,
            name=data.get("name", ""),
            proc_speed_factors=speeds,
            link_bandwidth_factors=(
                {(int(a), int(b)): float(f) for a, b, f in bandwidths}
                if bandwidths
                else None
            ),
        )

    def __repr__(self) -> str:
        return f"TargetMachine({self.name!r}, procs={self.n_procs})"


def make_machine(
    family: str,
    n_procs: int,
    params: MachineParams = IDEAL,
) -> TargetMachine:
    """One-call builder: ``make_machine("hypercube", 8, NCUBE_LIKE)``."""
    return TargetMachine(build_topology(family, n_procs), params)


def single_processor(params: MachineParams = IDEAL) -> TargetMachine:
    """The 1-processor machine — the baseline for speedup charts."""
    return TargetMachine(CustomTopology(1, [], name="uniprocessor"), params)
