"""Compile-ahead topology tables: routes and distances computed once.

The scheduling kernel (:mod:`repro.sched.core`) asks the topology the same
questions for every schedule on the same machine: hop counts, shortest-path
routes, the mean distance.  :class:`Topology` answers them from lazy per-object
caches — a fresh BFS (or analytic route walk) per topology *object*, even when
the machine is content-identical to one scheduled a moment ago.

:class:`CompiledTopology` compiles a :class:`~repro.machine.machine.TargetMachine`
topology once into flat all-pairs distance and route tables:

* plain lists indexed by ``src * n + dst`` — no dicts, no lazy fill;
* built by calling the topology's own :meth:`~Topology.route` per pair, so a
  family's analytic router (e-cube, XY, LCA) decides the path and every
  consumer stays **byte-identical** to the uncompiled answers;
* content-addressed by :meth:`TargetMachine.content_hash` and canonical-JSON
  serializable (:meth:`to_dict` / :meth:`from_dict`), so the tables land in
  the :class:`~repro.sched.service.ScheduleService` versioned disk tier and
  are shareable across processes and shards.

A small process-wide LRU (:func:`compiled_for`) keyed by machine hash lets
every kernel build on a warm topology skip BFS entirely.  It is the only
in-memory tier: :meth:`ScheduleService.compiled` peeks it, then the disk
namespace, then compiles.  ``compiled_for`` lookups are counted and surface
as ``compiled_hits`` / ``compiled_misses`` in
:func:`repro.sched.core.kernel_counters` and ``ServiceStats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import MachineError
from repro.lru import LRU, Counters

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (machine -> sched)
    from repro.machine.machine import TargetMachine
    from repro.machine.params import MachineParams

#: Bump when the table layout changes; serialized copies self-describe.
FORMAT_VERSION = 1


class CompiledTopology:
    """Flat all-pairs routing tables for one machine topology.

    ``dist[src * n + dst]`` is the hop count; ``routes[src * n + dst]`` is the
    processor sequence ``(src, ..., dst)`` along the same shortest path the
    live topology would return.  ``diameter`` and ``average_distance`` are
    derived from ``dist`` with the exact summation the live topology uses, so
    every float coming out of a compiled machine matches the lazy path
    byte-for-byte.
    """

    __slots__ = (
        "machine_hash",
        "n_procs",
        "dist",
        "routes",
        "_route_links",
        "_avg_distance",
    )

    def __init__(
        self,
        machine_hash: str,
        n_procs: int,
        dist: list[int],
        routes: list[tuple[int, ...]],
    ):
        if len(dist) != n_procs * n_procs or len(routes) != n_procs * n_procs:
            raise MachineError(
                f"compiled tables for {n_procs} processors need "
                f"{n_procs * n_procs} entries, got {len(dist)}/{len(routes)}"
            )
        self.machine_hash = machine_hash
        self.n_procs = n_procs
        self.dist = dist
        self.routes = routes
        self._route_links: dict[int, list[tuple[int, int]]] = {}
        self._avg_distance: float | None = None

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(cls, machine: "TargetMachine") -> "CompiledTopology":
        """Walk every ordered pair through the topology's own router."""
        topology = machine.topology
        n = topology.n_procs
        dist: list[int] = [0] * (n * n)
        routes: list[tuple[int, ...]] = [()] * (n * n)
        for src in range(n):
            base = src * n
            for dst in range(n):
                path = tuple(topology.route(src, dst))
                routes[base + dst] = path
                dist[base + dst] = len(path) - 1
        return cls(machine.content_hash(), n, dist, routes)

    # ------------------------------------------------------------------ #
    # the query surface the kernel needs
    # ------------------------------------------------------------------ #
    def hops(self, src: int, dst: int) -> int:
        return self.dist[src * self.n_procs + dst]

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        return self.routes[src * self.n_procs + dst]

    def route_links(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Undirected links along :meth:`route` (memoized per pair)."""
        key = src * self.n_procs + dst
        cached = self._route_links.get(key)
        if cached is None:
            path = self.routes[key]
            cached = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
            self._route_links[key] = cached
        return cached

    def diameter(self) -> int:
        return max(self.dist, default=0)

    def average_distance(self) -> float:
        """Mean hops over ordered distinct pairs — same summation order and
        integer total as :meth:`Topology.average_distance`, so the float is
        bit-identical."""
        avg = self._avg_distance
        if avg is not None:
            return avg
        n = self.n_procs
        if n == 1:
            self._avg_distance = 0.0
            return 0.0
        total = 0
        for src in range(n):
            base = src * n
            for dst in range(n):
                if src != dst:
                    total += self.dist[base + dst]
        avg = total / (n * (n - 1))
        self._avg_distance = avg
        return avg

    def mean_comm_cost(self, params: "MachineParams", size: float) -> float:
        """Replicates :meth:`TargetMachine.mean_comm_cost` from the tables."""
        if self.n_procs == 1:
            return 0.0
        avg_hops = self.average_distance()
        if avg_hops == 0:
            return 0.0
        return (
            params.msg_startup
            + avg_hops * params.hop_latency
            + avg_hops * size / params.transmission_rate
        )

    # ------------------------------------------------------------------ #
    # serialization (canonical-JSON friendly: lists + scalars only)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "compiled_topology",
            "format_version": FORMAT_VERSION,
            "machine_hash": self.machine_hash,
            "n_procs": self.n_procs,
            "dist": list(self.dist),
            "routes": [list(path) for path in self.routes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompiledTopology":
        if data.get("type") != "compiled_topology":
            raise MachineError(
                f"not a compiled-topology document (type={data.get('type')!r})"
            )
        if data.get("format_version") != FORMAT_VERSION:
            raise MachineError(
                f"compiled-topology format {data.get('format_version')!r} "
                f"unsupported (expected {FORMAT_VERSION})"
            )
        return cls(
            data["machine_hash"],
            data["n_procs"],
            [int(d) for d in data["dist"]],
            [tuple(path) for path in data["routes"]],
        )

    def __repr__(self) -> str:
        return (
            f"CompiledTopology(procs={self.n_procs}, "
            f"hash={self.machine_hash[:12]}...)"
        )


# ---------------------------------------------------------------------- #
# the process-wide warm-table cache
# ---------------------------------------------------------------------- #
#: Enough for a daemon serving many machines without unbounded growth.
_CACHE_CAP = 128

_CACHE = LRU(_CACHE_CAP)
_COUNTERS = Counters(compiled_hits=0, compiled_misses=0)


def compiled_for(machine: "TargetMachine") -> CompiledTopology:
    """The compiled tables for ``machine``, compiling on first sight.

    Content-addressed: two machine objects with the same params + topology
    share one entry.  A kernel built on a warm machine therefore never runs
    BFS — the tables are fetched by hash in O(1).
    """
    hit = _CACHE.get(machine.content_hash())
    if hit is not None:
        _COUNTERS.bump("compiled_hits")
        return hit
    _COUNTERS.bump("compiled_misses")
    compiled = CompiledTopology.compile(machine)
    seed_compiled(compiled)
    return compiled


def seed_compiled(compiled: CompiledTopology) -> None:
    """Insert pre-built tables (e.g. loaded from the service disk tier)."""
    _CACHE.put(compiled.machine_hash, compiled)


#: Peek the process cache by machine hash without counting or compiling.
cached_compiled = _CACHE.peek
#: Drop one machine's tables (mirrors ``ScheduleService.invalidate``).
evict_compiled = _CACHE.pop
#: Drop every cached table (tests, benchmarks); the counters are left alone.
clear_compiled = _CACHE.clear
#: Snapshot of the process-wide compiled-table hit/miss counters; its reset.
compiled_counters = _COUNTERS.snapshot
reset_compiled_counters = _COUNTERS.reset
