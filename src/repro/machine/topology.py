"""Interconnection-network topologies (the paper's Figure 2 graph input).

A :class:`Topology` is an undirected graph over processors ``0..n-1``.  The
user "enters the target machine's interconnection network topology as
another graph"; :class:`CustomTopology` accepts any edge list, while
:mod:`repro.machine.topologies` provides the families Banger supports
(hypercube, mesh, tree, star, fully-connected) plus ring/torus/bus
extensions.

A topology is a *router*: the base class walks lazily built BFS all-pairs
tables (lowest-numbered neighbour first); regular families override
:meth:`route` with their analytic algorithms (e-cube, XY, LCA), which tests
cross-check against BFS distances.  It is not what the rest of the system
reads: :mod:`repro.machine.compiled` walks the router of a machine's
*reloaded document* once into flat tables, and every cost, route and distance
a :class:`~repro.machine.machine.TargetMachine`, scheduler or simulator uses
comes from those.  So the BFS tables are the only derived state kept here;
:meth:`neighbors`, :meth:`route_links`, :meth:`diameter` and
:meth:`average_distance` compute on each call.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Sequence

from repro.errors import MachineError, RoutingError


class Topology:
    """An undirected processor-interconnection graph.

    Parameters
    ----------
    n_procs:
        Number of processors, labelled ``0..n_procs-1``.
    links:
        Iterable of undirected processor pairs.
    name:
        Display name (subclasses set a family-specific one).
    """

    family = "custom"
    #: True when all links are one contended resource (a bus).
    shared_medium = False

    def __init__(self, n_procs: int, links: Iterable[tuple[int, int]], name: str = ""):
        if n_procs < 1:
            raise MachineError(f"topology needs >= 1 processor, got {n_procs}")
        self.n_procs = n_procs
        self.name = name or f"{self.family}({n_procs})"
        # Daemon worker threads share machines: the BFS-table build is
        # double-checked under this lock, which add_link also holds.
        self._lock = threading.Lock()
        self._revision = 0
        self._adj: dict[int, set[int]] = {p: set() for p in range(n_procs)}
        self._links: set[tuple[int, int]] = set()
        for a, b in links:
            self._link(a, b)
        self._invalidate_caches()

    # ------------------------------------------------------------------ #
    # construction / structure
    # ------------------------------------------------------------------ #
    def _link(self, a: int, b: int) -> None:
        """Validate and insert one link; the caller invalidates."""
        self._check_proc(a)
        self._check_proc(b)
        if a == b:
            raise MachineError(f"self-link on processor {a} is not allowed")
        self._links.add((min(a, b), max(a, b)))
        self._adj[a].add(b)
        self._adj[b].add(a)

    def add_link(self, a: int, b: int) -> None:
        with self._lock:
            self._link(a, b)
            self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop the BFS tables; called (lock held) when the link set changes.

        Also bumps ``_revision``, the cheap change counter that keys
        revision-scoped caches elsewhere (``TargetMachine.content_hash``,
        the compiled-topology tables in :mod:`repro.machine.compiled`).
        """
        self._revision += 1
        self._dist: list[list[int]] | None = None
        self._next_hop: list[list[int]] | None = None

    def _check_proc(self, p: int) -> None:
        if not (0 <= p < self.n_procs):
            raise MachineError(
                f"processor {p} out of range for {self.name} (0..{self.n_procs - 1})"
            )

    @property
    def links(self) -> list[tuple[int, int]]:
        return sorted(self._links)

    @property
    def n_links(self) -> int:
        return len(self._links)

    def neighbors(self, p: int) -> list[int]:
        self._check_proc(p)
        return sorted(self._adj[p])

    def degree(self, p: int) -> int:
        self._check_proc(p)
        return len(self._adj[p])

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj.values()), default=0)

    def has_link(self, a: int, b: int) -> bool:
        self._check_proc(a)
        self._check_proc(b)
        return (min(a, b), max(a, b)) in self._links

    # ------------------------------------------------------------------ #
    # shortest paths
    # ------------------------------------------------------------------ #
    def _ensure_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Build (or fetch) the BFS tables; returns a consistent snapshot."""
        dist, nxt = self._dist, self._next_hop
        if dist is not None and nxt is not None:
            return dist, nxt
        with self._lock:
            dist, nxt = self._dist, self._next_hop
            if dist is not None and nxt is not None:
                return dist, nxt
            n = self.n_procs
            INF = n + 1
            dist = [[INF] * n for _ in range(n)]
            nxt = [[-1] * n for _ in range(n)]
            adj = [sorted(self._adj[p]) for p in range(n)]
            for src in range(n):
                dist[src][src] = 0
                nxt[src][src] = src
                q: deque[int] = deque([src])
                while q:
                    u = q.popleft()
                    for v in adj[u]:
                        if dist[src][v] > dist[src][u] + 1:
                            dist[src][v] = dist[src][u] + 1
                            # first hop out of src towards v
                            nxt[src][v] = v if u == src else nxt[src][u]
                            q.append(v)
            self._dist = dist
            self._next_hop = nxt
            return dist, nxt

    def hops(self, src: int, dst: int) -> int:
        """Link count along :meth:`route` — every router here is shortest-path."""
        return len(self.route(src, dst)) - 1

    def route(self, src: int, dst: int) -> list[int]:
        """Processor sequence ``[src, ..., dst]`` along one shortest path."""
        self._check_proc(src)
        self._check_proc(dst)
        if src == dst:
            return [src]
        dist, nxt = self._ensure_tables()
        if dist[src][dst] > self.n_procs:
            raise RoutingError(f"{self.name}: no route from {src} to {dst}")
        path = [src]
        cur = src
        while cur != dst:
            cur = nxt[cur][dst]
            path.append(cur)
        return path

    def route_links(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The undirected links crossed by :meth:`route` (empty if src==dst)."""
        path = self.route(src, dst)
        return [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]

    def _distances(self) -> list[list[int]]:
        """The BFS distance rows; raises if some pair is unreachable."""
        dist, _ = self._ensure_tables()
        if max(map(max, dist)) > self.n_procs:
            raise RoutingError(f"{self.name} is disconnected")
        return dist

    def diameter(self) -> int:
        """Longest shortest path; raises if disconnected."""
        return max(map(max, self._distances()))

    def average_distance(self) -> float:
        """Mean hop count over ordered distinct pairs (0 for 1 processor)."""
        n = self.n_procs
        if n == 1:
            return 0.0
        return sum(map(sum, self._distances())) / (n * (n - 1))

    def is_connected(self) -> bool:
        if self.n_procs == 1:
            return True
        seen = {0}
        q = deque([0])
        while q:
            u = q.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return len(seen) == self.n_procs

    def validate(self) -> None:
        if not self.is_connected():
            raise MachineError(f"topology {self.name!r} is disconnected")

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, procs={self.n_procs}, links={self.n_links})"


class CustomTopology(Topology):
    """A user-drawn interconnection graph (any edge list)."""

    family = "custom"

    def __init__(self, n_procs: int, links: Sequence[tuple[int, int]], name: str = ""):
        super().__init__(n_procs, links, name=name or f"custom({n_procs})")
