"""Compile-ahead topology tables: the one answer to "how do messages travel".

:class:`CompiledTopology` walks a machine's router once over every ordered
processor pair into flat distance and route tables — plain lists indexed by
``src * n + dst``.  Everything reads routing from them: the scheduling kernel
(:mod:`repro.sched.core`) in its inner loops, and ``TargetMachine.comm_cost``
/ ``route`` / ``mean_comm_cost`` for the frozen reference schedulers, the
replay engine, lowering, lint, metrics and the Gantt renderers — so all of
them see the routes a schedule was planned with.

The tables are a function of the machine *document*: the router walked is
not ``machine.topology`` itself but the one
:func:`~repro.machine.topologies.routing_topology` picks from its ``family``,
``n_procs`` and ``links``, exactly as a reload of the saved machine does.
Machines with equal ``content_hash()`` therefore compile to equal tables
whichever is seen first, which is what lets one process-wide LRU
(:func:`compiled_for`), keyed by that hash, serve them all.  It is the only
tier — tables are never written to disk, so none can outlive the process and
code that compiled it.  ``compiled_for`` lookups surface as
``compiled_hits`` / ``compiled_misses`` (a miss is a compilation) in
:func:`repro.sched.core.kernel_counters` and ``ServiceStats``;
:func:`cached_compiled` is the uncounted peek.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MachineError
from repro.lru import LEDGER, LRU
from repro.machine.topologies import routing_topology

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (machine -> compiled)
    from repro.machine.machine import TargetMachine


class CompiledTopology:
    """Flat all-pairs routing tables for one machine topology.

    ``dist[src * n + dst]`` is the hop count; ``routes[src * n + dst]`` is the
    processor sequence ``(src, ..., dst)`` the document's router returns.
    ``diameter`` and ``average_distance`` are derived from ``dist`` with the
    integer total :class:`~repro.machine.topology.Topology` uses, so the
    floats match a live topology's byte for byte.  ``shared_medium`` is the
    document's router's flag (a bus): every hop contends for one resource.
    """

    __slots__ = (
        "machine_hash",
        "n_procs",
        "dist",
        "routes",
        "shared_medium",
        "_diameter",
        "_avg_distance",
        "_link_ids",
    )

    def __init__(
        self,
        machine_hash: str,
        n_procs: int,
        dist: list[int],
        routes: list[tuple[int, ...]],
        shared_medium: bool = False,
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
        self.shared_medium = shared_medium
        self._diameter = max(dist, default=0)
        self._avg_distance: float | None = None
        self._link_ids: tuple[int, list[tuple[int, ...]]] | None = None

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(cls, machine: "TargetMachine") -> "CompiledTopology":
        """Walk every ordered pair through the machine document's router."""
        live = machine.topology
        router = routing_topology(live.family, live.n_procs, live.links)
        route, n = router.route, live.n_procs
        routes = [tuple(route(src, dst)) for src in range(n) for dst in range(n)]
        dist = [len(path) - 1 for path in routes]
        return cls(machine.content_hash(), n, dist, routes, router.shared_medium)

    # ------------------------------------------------------------------ #
    # the query surface the kernel needs
    # ------------------------------------------------------------------ #
    def hops(self, src: int, dst: int) -> int:
        return self.dist[src * self.n_procs + dst]

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        return self.routes[src * self.n_procs + dst]

    def diameter(self) -> int:
        return self._diameter

    def average_distance(self) -> float:
        """Mean hops over ordered distinct pairs (0 for one processor) — the
        integer total :meth:`Topology.average_distance` divides, so the float
        is bit-identical."""
        if self._avg_distance is None:
            n = self.n_procs
            self._avg_distance = sum(self.dist) / (n * (n - 1)) if n > 1 else 0.0
        return self._avg_distance

    def link_ids(self) -> tuple[int, list[tuple[int, ...]]]:
        """``(count, crossed)``: the machine's contended resources numbered
        from 0, and per ordered pair (``src * n + dst``) the ones its route
        crosses, in order.  A resource is an undirected link — or, on a
        shared medium, the one medium every hop crosses.  Derived from
        ``routes`` on first use (only contention modelling asks)."""
        if self._link_ids is None:
            if self.shared_medium:
                count, crossed = 1, [(0,) * (len(path) - 1) for path in self.routes]
            else:
                numbered: dict[tuple[int, int], int] = {}
                crossed = [
                    tuple(
                        numbered.setdefault((a, b) if a < b else (b, a), len(numbered))
                        for a, b in zip(path, path[1:])
                    )
                    for path in self.routes
                ]
                count = len(numbered)
            self._link_ids = (count, crossed)
        return self._link_ids

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
LEDGER.declare(compiled_hits=0, compiled_misses=0)


def compiled_for(machine: "TargetMachine") -> CompiledTopology:
    """The compiled tables for ``machine``, compiling on first sight.

    Content-addressed: two machine objects with the same params + topology
    share one entry.  A kernel built on a warm machine therefore never walks
    a router — the tables are fetched by hash in O(1).
    """
    hit = _CACHE.get(machine.content_hash())
    if hit is not None:
        LEDGER.bump("compiled_hits")
        return hit
    LEDGER.bump("compiled_misses")
    compiled = CompiledTopology.compile(machine)
    _CACHE.put(compiled.machine_hash, compiled)
    return compiled


#: Peek the process cache by machine hash without counting or compiling.
cached_compiled = _CACHE.peek
#: Drop one machine's tables (mirrors ``ScheduleService.invalidate``).
evict_compiled = _CACHE.pop
#: Drop every cached table (tests, benchmarks); the counters are left alone.
clear_compiled = _CACHE.clear
