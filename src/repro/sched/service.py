"""The scheduling service: content-addressed caching + batched sweeps.

The paper's promise is *instant feedback* — every edit should refresh the
Gantt charts and the speedup-prediction chart immediately.  Recomputing a
schedule from scratch on every query breaks that promise as designs and
machine sweeps grow, so :class:`ScheduleService` sits between the
interactive surface (:class:`~repro.env.project.BangerProject`, the CLI,
the shell) and the heuristics in :mod:`repro.sched`:

* **Content-addressed memoization.**  A schedule is keyed by the fingerprint
  of its task graph (:meth:`TaskGraph.content_hash`), its target machine
  (:meth:`TargetMachine.content_hash`), and its scheduler configuration
  (:func:`~repro.sched.registry.scheduler_cache_key`).  Identical questions
  get identical — cached — answers; any mutation produces a new key, so the
  cache can never serve stale results.  An in-memory LRU is always on; an
  on-disk cache (``BANGER_CACHE_DIR`` or ``~/.cache/banger``, versioned)
  is optional and corruption-tolerant: a bad entry is evicted and
  recomputed, never a traceback.  Schedules are the only thing it holds —
  routing tables (:mod:`repro.machine.compiled`) live in one process-wide
  LRU and are recompiled, not reloaded, by a new process.

* **Sweeps.**  Figure-3 style sweeps (many machine sizes, many schedulers)
  are one batch in this process: the cache answers what it can, then the
  misses run in order.  A schedule is cheaper to compute than to pickle to
  and from a worker (``docs/performance.md``, "Why sweeps are serial"), so
  parallelism lives one tier up, in the daemon's worker pool.

* **Observability.**  :meth:`ScheduleService.stats` reports hits, misses,
  evictions, and per-sweep wall time — surfaced by ``banger sweep --stats``.

Each cached schedule is held packed (:func:`~repro.sched.schedule.pack_schedule`):
one ``bytes`` object, a fraction of the live schedule's size, that the
garbage collector never traverses.  A hit rebuilds it over the *caller's*
graph and machine, so it returns a schedule equal to the one first computed,
never the same object, and never one whose graph or machine another caller
has since edited.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ScheduleError
from repro.graph.analysis import average_parallelism
from repro.graph.serialize import fingerprint
from repro.graph.taskgraph import TaskGraph
from repro.lru import LEDGER, LRU, Counters
from repro.machine.compiled import CompiledTopology, compiled_for, evict_compiled
from repro.machine.machine import TargetMachine, make_machine, single_processor
from repro.machine.params import IDEAL, MachineParams
from repro.sched.base import Scheduler
from repro.sched.core import sharing_graph_tables
from repro.sched.registry import resolve_scheduler, scheduler_cache_key
from repro.sched.schedule import Schedule, pack_schedule, unpack_schedule
from repro.sched.serialize import schedule_from_dict, schedule_to_dict
from repro.sched.sweeps import SpeedupPoint, SpeedupReport
from repro.store.evict import atomic_write_text, dir_files, enforce_size_cap

#: Bump when the on-disk entry format — or what a cached schedule means —
#: changes; old directories are ignored.  2: a reloaded machine routes by its
#: family's algorithm, so version-1 schedules of reloaded projects are stale.
CACHE_VERSION = 2


# --------------------------------------------------------------------- #
# the one options object every scheduling entry point consumes
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduleRequest:
    """Options for any scheduling query — single schedule or sweep.

    Parameters
    ----------
    scheduler:
        Registry name or :class:`Scheduler` instance.
    proc_counts:
        Machine sizes for sweeps (``None`` = the caller's default).
    family:
        Topology family for sweeps (``None`` = derive from the project's
        configured machine).
    params:
        Machine parameters for sweeps (``None`` = the configured machine's).
    """

    scheduler: str | Scheduler = "mh"
    proc_counts: tuple[int, ...] | None = None
    family: str | None = None
    params: MachineParams | None = None

    def resolved_scheduler(self) -> Scheduler:
        return resolve_scheduler(self.scheduler)


def as_request(value: Any = None, **overrides: Any) -> ScheduleRequest:
    """Coerce the polymorphic argument of the project API into a request.

    Accepts an existing :class:`ScheduleRequest`, a scheduler name, a
    :class:`Scheduler` instance, a sequence of processor counts, or ``None``.
    Keyword overrides with value ``None`` are ignored, so call sites can pass
    their optional parameters straight through.
    """
    if isinstance(value, ScheduleRequest):
        base = value
    elif value is None:
        base = ScheduleRequest()
    elif isinstance(value, (str, Scheduler)):
        base = ScheduleRequest(scheduler=value)
    elif isinstance(value, Sequence):
        base = ScheduleRequest(proc_counts=tuple(int(n) for n in value))
    else:
        raise ScheduleError(
            "expected a ScheduleRequest, scheduler name, Scheduler, or "
            f"sequence of processor counts, got {type(value).__name__}"
        )
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(base, **updates) if updates else base


def default_family(machine: TargetMachine, fallback: str = "hypercube") -> str:
    """The sweep family implied by a configured machine.

    Custom (hand-drawn or reloaded-without-family) topologies cannot be
    rebuilt at other sizes, so they fall back to the paper's hypercube.
    """
    family = machine.topology.family
    return fallback if family == "custom" else family


# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #
@dataclass
class ServiceStats:
    """Counters for cache behaviour and sweep execution: this service's own,
    then (from ``kernel_builds`` on) exactly the process-wide work ledger's
    names, as grown since the service was built."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    ir_hits: int = 0
    ir_misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_evictions: int = 0
    disk_gc_deletions: int = 0
    sweeps: int = 0
    last_sweep_seconds: float = 0.0
    entries: int = 0
    kernel_builds: int = 0
    kernel_build_ms: float = 0.0
    route_cache_hits: int = 0
    route_cache_misses: int = 0
    compiled_hits: int = 0
    compiled_misses: int = 0
    reactive_remaps: int = 0
    reactive_rounds: int = 0
    dynamic_sims: int = 0
    stranded_tasks: int = 0
    graph_patched: int = 0
    graph_cold: int = 0
    retime_forked: int = 0
    retime_replayed: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        doc = dict(vars(self))
        doc["hit_rate"] = round(self.hit_rate, 4)
        return doc

    def render(self) -> str:
        return (
            f"cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.evictions} eviction(s), {self.entries} entries "
            f"(hit rate {self.hit_rate:.0%})\n"
            f"disk:  {self.disk_hits} hit(s), {self.disk_writes} write(s), "
            f"{self.disk_evictions} corrupt entr(ies) evicted, "
            f"{self.disk_gc_deletions} trimmed by the size cap\n"
            f"sweep: {self.sweeps} run(s), last "
            f"{self.last_sweep_seconds * 1000:.1f} ms\n"
            f"kernel: {self.kernel_builds} build(s) in "
            f"{self.kernel_build_ms:.1f} ms, routes {self.route_cache_hits} "
            f"hit(s) / {self.route_cache_misses} miss(es), compiled "
            f"topologies {self.compiled_hits} hit(s) / "
            f"{self.compiled_misses} miss(es)"
        )


class ScheduleService:
    """Persistent, queryable scheduling behind the interactive surface.

    A hit returns a schedule equal to the one the miss computed (the same
    :func:`~repro.sched.serialize.schedule_to_dict` document, timelines and
    copy lists in the same order), built over the caller's own graph and
    machine; it is never the object an earlier call returned.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity (schedules, across all graphs/machines).
    disk_cache:
        ``None`` (default): on-disk caching is enabled only when the
        ``BANGER_CACHE_DIR`` environment variable is set.  ``True``: use
        ``$BANGER_CACHE_DIR``, else ``$XDG_CACHE_HOME/banger``, else
        ``~/.cache/banger``.  ``False``: memory only.  A path: use it.
    disk_cache_max_bytes:
        Byte cap on the versioned disk cache.  ``None`` (default) reads
        ``BANGER_CACHE_MAX_BYTES`` from the environment; unset/0 means
        uncapped (the pre-cap behaviour).  When set, every disk write
        trims the cache oldest-first back under the cap using the shared
        eviction policy in :mod:`repro.store.evict`.
    """

    def __init__(
        self,
        max_entries: int = 512,
        disk_cache: bool | str | Path | None = None,
        disk_cache_max_bytes: int | None = None,
    ):
        if max_entries < 1:
            raise ScheduleError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        if disk_cache_max_bytes is None:
            try:
                disk_cache_max_bytes = int(
                    os.environ.get("BANGER_CACHE_MAX_BYTES", "0")
                )
            except ValueError:
                disk_cache_max_bytes = 0
        self.disk_cache_max_bytes = disk_cache_max_bytes or None
        self._lru = LRU(max_entries)  # (graph, machine, scheduler) -> packed bytes
        # Lowered-program cache (memory only): same content key as the
        # schedule LRU — the IR is a pure function of (graph, machine,
        # scheduler) — but a separate store, because the disk layer only
        # knows how to round-trip Schedule documents.
        self._ir_lru = LRU(max_entries)
        self._disk_dir = self._resolve_disk_dir(disk_cache)
        # One service may be shared by many threads (the banger daemon's
        # inline mode, threaded test drivers): the LRUs and this counter set
        # lock themselves, so concurrent traffic cannot drop counts.
        self._counts = Counters(
            disk_hits=0, disk_writes=0, disk_evictions=0, disk_gc_deletions=0,
            evictions=0, sweeps=0,
        )
        self._last_sweep_seconds = 0.0
        # The ledger is process-wide; remember where it stood at construction
        # so stats() reports only what grew since.
        self._ledger_base = LEDGER.snapshot()

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_disk_dir(disk_cache: bool | str | Path | None) -> Path | None:
        if disk_cache is False:
            return None
        if disk_cache is None:
            env = os.environ.get("BANGER_CACHE_DIR")
            if not env:
                return None
            root = Path(env)
        elif disk_cache is True:
            env = os.environ.get("BANGER_CACHE_DIR")
            if env:
                root = Path(env)
            else:
                xdg = os.environ.get("XDG_CACHE_HOME")
                base = Path(xdg) if xdg else Path.home() / ".cache"
                root = base / "banger"
        else:
            root = Path(disk_cache)
        return root / f"v{CACHE_VERSION}"

    @property
    def disk_dir(self) -> Path | None:
        """The versioned on-disk cache directory, or ``None`` if disabled."""
        return self._disk_dir

    # ------------------------------------------------------------------ #
    # the memoized primitive
    # ------------------------------------------------------------------ #
    def _key(
        self,
        graph: TaskGraph,
        machine: TargetMachine,
        scheduler: Scheduler,
        graph_fp: str | None = None,
    ) -> tuple[str, str, str]:
        return (
            graph_fp or graph.content_hash(),
            machine.content_hash(),
            scheduler_cache_key(scheduler),
        )

    def schedule(
        self,
        graph: TaskGraph,
        machine: TargetMachine,
        scheduler: str | Scheduler = "mh",
        graph_fp: str | None = None,
    ) -> Schedule:
        """Schedule ``graph`` on ``machine``, memoized by content.

        ``graph_fp``, here and below, is ``graph.content_hash()`` from a
        caller that already holds it; left out, the graph is hashed here.
        """
        pairs = [(machine, resolve_scheduler(scheduler))]
        return self._batch(graph, pairs, graph_fp)[0]

    def compiled(self, machine: TargetMachine) -> CompiledTopology:
        """The compiled routing tables for ``machine`` — the process-wide,
        hash-keyed entry every :class:`~repro.sched.core.SchedKernel` and
        ``machine.route`` reads (a counted lookup; compiles on a miss)."""
        return compiled_for(machine)

    def lower(
        self,
        graph: TaskGraph,
        machine: TargetMachine,
        scheduler: str | Scheduler = "mh",
        graph_fp: str | None = None,
    ):
        """The lowered program for ``graph`` on ``machine``, memoized.

        Lowering (:func:`repro.codegen.ir.lower`) is a pure function of the
        schedule, and the schedule is a pure function of this key, so the
        :class:`~repro.codegen.ir.LoweredProgram` is cached under the same
        content-addressed triple as the schedule itself.  Every codegen
        surface (``banger codegen``, the daemon's ``/codegen`` op, the
        project API) shares entries through here.
        """
        from repro.codegen.ir import lower as _lower

        sched = resolve_scheduler(scheduler)
        key = self._key(graph, machine, sched, graph_fp)
        return self._ir_lru.get_or_compute(
            key, lambda: _lower(self.schedule(graph, machine, sched, key[0]))
        )

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def schedules_for_sizes(
        self,
        graph: TaskGraph,
        proc_counts: Sequence[int],
        scheduler: str | Scheduler = "mh",
        family: str = "hypercube",
        params: MachineParams = IDEAL,
        graph_fp: str | None = None,
    ) -> dict[int, Schedule]:
        """One schedule per machine size, cache-aware.

        The result dict iterates in ``proc_counts`` order regardless of
        which entries were cached.
        """
        request = ScheduleRequest(scheduler, tuple(proc_counts), family, params)
        return self._sweep(graph, [request], graph_fp)[0][1]

    def predict_speedup(
        self,
        graph: TaskGraph,
        proc_counts: Sequence[int] = (1, 2, 4, 8),
        scheduler: str | Scheduler = "mh",
        family: str = "hypercube",
        params: MachineParams = IDEAL,
    ) -> SpeedupReport:
        """The Figure-3 speedup sweep, built on the cached schedule batch."""
        request = ScheduleRequest(scheduler, tuple(proc_counts), family, params)
        return self.predict_speedups(graph, [request])[0]

    def predict_speedups(
        self,
        graph: TaskGraph,
        requests: Sequence[ScheduleRequest],
        graph_fp: str | None = None,
    ) -> list[SpeedupReport]:
        """One Figure-3 sweep per request — each with its scheduler, sizes,
        family and params set — all resolved as one batch."""
        # what the graph alone decides, once per distinct parameter set
        serial_and_bound: dict[MachineParams, tuple[float, float]] = {}
        reports = []
        for request, (sched, schedules) in zip(
            requests, self._sweep(graph, requests, graph_fp)
        ):
            params = request.params
            if params not in serial_and_bound:
                serial_and_bound[params] = (
                    sum(params.exec_time(t.work) for t in graph.tasks),
                    average_parallelism(
                        graph, exec_time=lambda t: params.exec_time(graph.work(t))
                    ),
                )
            serial, bound = serial_and_bound[params]
            points = []
            for n, schedule in schedules.items():
                ms = schedule.makespan()
                sp = serial / ms if ms > 0 else 0.0
                points.append(
                    SpeedupPoint(
                        n_procs=n,
                        makespan=ms,
                        speedup=sp,
                        efficiency=sp / n if n else 0.0,
                    )
                )
            reports.append(
                SpeedupReport(
                    graph=graph.name,
                    scheduler=sched.name,
                    family=request.family,
                    serial_time=serial,
                    points=tuple(points),
                    max_parallelism=bound,
                )
            )
        return reports

    def _sweep(
        self,
        graph: TaskGraph,
        requests: Sequence[ScheduleRequest],
        graph_fp: str | None,
    ) -> list[tuple[Scheduler, dict[int, Schedule]]]:
        """Per request, its scheduler and size -> schedule in the order asked
        for (a repeated size once); all of them go through one batch."""
        t0 = time.perf_counter()
        machines: dict[tuple[str, int, MachineParams], TargetMachine] = {}
        plan: list[tuple[Scheduler, list[int]]] = []
        pairs: list[tuple[TargetMachine, Scheduler]] = []
        for request in requests:
            sched = request.resolved_scheduler()
            sizes = list(dict.fromkeys(int(n) for n in request.proc_counts))
            plan.append((sched, sizes))
            for n in sizes:
                spec = (request.family, n, request.params)
                if spec not in machines:
                    machines[spec] = (
                        single_processor(request.params) if n == 1
                        else make_machine(request.family, n, request.params)
                    )
                pairs.append((machines[spec], sched))
        results = iter(self._batch(graph, pairs, graph_fp))
        self._note_sweep(t0, runs=len(plan))
        return [(sched, {n: next(results) for n in sizes}) for sched, sizes in plan]

    def compare_schedulers(
        self,
        graph: TaskGraph,
        machine: TargetMachine,
        schedulers: Sequence[str | Scheduler],
    ) -> dict[str, Schedule]:
        """One schedule per heuristic on a fixed machine (ablation sweeps)."""
        t0 = time.perf_counter()
        resolved = [resolve_scheduler(s) for s in schedulers]
        out = self._batch(graph, [(machine, s) for s in resolved])
        self._note_sweep(t0)
        return {s.name: schedule for s, schedule in zip(resolved, out)}

    # ------------------------------------------------------------------ #
    # batch execution
    # ------------------------------------------------------------------ #
    def _batch(
        self,
        graph: TaskGraph,
        pairs: list[tuple[TargetMachine, Scheduler]],
        graph_fp: str | None = None,
    ) -> list[Schedule]:
        """Resolve one graph's scheduling problems in order, cache first.

        Returns the schedules aligned with ``pairs``.  The graph is hashed
        once (serialize + SHA-256) unless the caller brought its hash, and
        nothing here mutates it, so the misses' kernels share one set of
        graph tables.
        """
        fp = graph_fp or graph.content_hash()
        results: list[Schedule] = []
        with sharing_graph_tables(graph):
            for machine, sched in pairs:
                key = self._key(graph, machine, sched, fp)
                schedule = self._get(key, graph, machine)
                if schedule is None:
                    schedule = sched.schedule(graph, machine)
                    self._put(key, schedule)
                results.append(schedule)
        return results

    def _note_sweep(self, t0: float, runs: int = 1) -> None:
        self._counts.bump("sweeps", runs)
        self._last_sweep_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # cache internals
    # ------------------------------------------------------------------ #
    def _get(self, key: tuple[str, str, str], graph: TaskGraph,
             machine: TargetMachine) -> Schedule | None:
        """The schedule cached under ``key``, rebuilt over ``graph`` and
        ``machine`` (whose content the key names), or ``None``."""
        packed = self._lru.get(key)
        if packed is None:
            loaded = self._disk_read(key)
            if loaded is None:
                return None
            packed = pack_schedule(loaded)
            self._lru.put(key, packed)
            self._counts.bump("disk_hits")
        return unpack_schedule(packed, graph, machine)

    def _put(self, key: tuple[str, str, str], schedule: Schedule) -> None:
        self._lru.put(key, pack_schedule(schedule))
        if self._disk_write(key, schedule):
            self._counts.bump("disk_writes")

    # ------------------------------------------------------------------ #
    # disk cache (optional, corruption-tolerant): one JSON file per
    # schedule key at the top of the versioned directory
    # ------------------------------------------------------------------ #
    def _disk_read(self, key: tuple[str, str, str]) -> Schedule | None:
        """The schedule in ``key``'s entry file, or ``None`` on a miss."""
        if self._disk_dir is None:
            return None
        path = self._disk_dir / (fingerprint(list(key)) + ".json")
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if doc.get("cache_version") != CACHE_VERSION or doc.get("key") != list(key):
                raise ValueError("cache entry does not match its key")
            return schedule_from_dict(doc["schedule"])
        except Exception:
            # Corrupt or mismatched entry: evict it, never raise.
            self._counts.bump("disk_evictions")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_write(self, key: tuple[str, str, str], schedule: Schedule) -> bool:
        """Write ``key``'s entry file atomically; ``True`` when it landed."""
        if self._disk_dir is None:
            return False
        doc = {
            "cache_version": CACHE_VERSION,
            "key": list(key),
            "schedule": schedule_to_dict(schedule),
        }
        # A read-only or full cache directory must never break scheduling.
        wrote = atomic_write_text(
            self._disk_dir / (fingerprint(list(key)) + ".json"), json.dumps(doc)
        )
        self.gc_disk()  # back under the configured byte cap, if there is one
        return wrote

    def gc_disk(self, max_bytes: int | None = None) -> int:
        """Explicitly trim the disk cache to ``max_bytes`` (or the configured
        cap); returns how many entries were deleted.  A no-op when the disk
        tier is off or no cap is known."""
        cap = max_bytes if max_bytes is not None else self.disk_cache_max_bytes
        if self._disk_dir is None or not cap:
            return 0
        deleted = enforce_size_cap(dir_files(self._disk_dir), cap)
        self._counts.bump("disk_gc_deletions", len(deleted))
        return len(deleted)

    # ------------------------------------------------------------------ #
    # invalidation + observability
    # ------------------------------------------------------------------ #
    def invalidate(
        self, graph_hash: str | None = None, machine_hash: str | None = None
    ) -> int:
        """Evict every in-memory entry touching the given fingerprints.

        Content addressing already guarantees correctness (a mutated graph
        or machine hashes to new keys); eviction reclaims the memory held by
        entries that can no longer be asked for.  Returns the count evicted.

        A machine-hash-targeted eviction also drops that machine's
        compiled-topology tables from the process-wide cache the kernels
        consult.
        """

        def stale(key: tuple[str, str, str]) -> bool:
            return (graph_hash is not None and key[0] == graph_hash) or (
                machine_hash is not None and key[1] == machine_hash
            )

        evicted = 0
        for key in filter(stale, self._lru.keys()):
            evicted += self._lru.pop(key) is not None
        for key in filter(stale, self._ir_lru.keys()):
            self._ir_lru.pop(key)
        self._counts.bump("evictions", evicted)
        if machine_hash is not None:
            evict_compiled(machine_hash)
        return evicted

    def clear(self) -> None:
        """Drop every in-memory entry (the disk cache is left alone)."""
        self._counts.bump("evictions", self._lru.clear())
        self._ir_lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> ServiceStats:
        """A snapshot of the service counters (thread-safe).

        The memory-tier numbers are read off the LRUs: a lookup the disk
        answered is a memory miss, so it moves from ``misses`` to ``hits``;
        ``evictions`` adds capacity evictions to invalidated/cleared entries.
        """
        snap = ServiceStats(
            **self._counts.snapshot(),
            **LEDGER.since(self._ledger_base),
            last_sweep_seconds=self._last_sweep_seconds,
        )
        lru, ir = self._lru, self._ir_lru
        snap.hits = lru.hits + snap.disk_hits
        snap.misses = lru.misses - snap.disk_hits
        snap.evictions += lru.evictions
        snap.ir_hits, snap.ir_misses, snap.entries = ir.hits, ir.misses, len(lru)
        return snap

    def __repr__(self) -> str:
        disk = str(self._disk_dir) if self._disk_dir else "off"
        return (
            f"ScheduleService(entries={len(self._lru)}/{self.max_entries}, "
            f"disk={disk})"
        )


# --------------------------------------------------------------------- #
# module-default instance (used by the functional sweep API)
# --------------------------------------------------------------------- #
_default: ScheduleService | None = None


def default_service() -> ScheduleService:
    """The process-wide service behind :func:`repro.sched.sweeps.predict_speedup`
    and every daemon op (imported there as ``repro.server.ops.shared_service``)."""
    global _default
    if _default is None:
        _default = ScheduleService()
    return _default
