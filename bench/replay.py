"""The traced replay: a sample of a workload's requests, run in-process.

Each request goes through the steps the daemon takes, in its order —
parse and body hash, the body-hash memo, ``ops.coalesce_key``, the response
cache, a worker round trip, ``ops.execute``, ``protocol.json_body`` — with a
span around each and, through :meth:`bench.trace.Tracer.install`, around
every call those steps make into the layers below.  The worker round trip
goes through a real one-slot ``WorkerPool`` carrying the request's payload
to a no-work op, because timing the real op in a worker and subtracting an
in-process execution drowns a few milliseconds of IPC in the run-to-run
noise of the op itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Any

from repro.machine.compiled import clear_compiled, compiled_for
from repro.sched.service import ScheduleService
from repro.server import ops
from repro.server.app import ROUTES
from repro.server.protocol import json_body
from repro.server.store_api import store_request
from repro.server.workers import WorkerPool
from repro.store import ProjectRepository
from repro.store.corpus import seed_corpus

from bench.daemon import REQUEST_TIMEOUT_S, scratch_dir
from bench.loadgen import Op
from bench.spec import BenchError
from bench.trace import Tracer


class PoolProbe:
    """One worker process behind the daemon's own pool, driven synchronously."""

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._pool = WorkerPool(1)

    def round_trip_ms(self, payload: dict[str, Any]) -> float:
        """Wall time to carry ``payload`` to the worker and get a reply.

        The worker runs the no-work ``sleep`` op, so what is timed is the
        pool itself: slot checkout, thread hops, pickling the payload down
        the pipe and a small reply back up.
        """
        t0 = time.perf_counter()
        reply = self._loop.run_until_complete(self._pool.run(
            "sleep", {"seconds": 0.0, "carried": payload}, REQUEST_TIMEOUT_S
        ))
        elapsed = (time.perf_counter() - t0) * 1000.0
        if reply[0] != "ok":
            raise BenchError(f"worker failed the round trip: {reply[1:]}")
        return elapsed

    def close(self) -> None:
        self._loop.run_until_complete(self._pool.close())
        self._loop.close()


class Replayer:
    """Replays :class:`~bench.loadgen.Op` requests with spans, in-process."""

    def __init__(self, tracer: Tracer, probe: PoolProbe):
        self.tracer = tracer
        self.probe = probe
        self._key_memo: dict[str, str] = {}
        self._responses: dict[str, bytes] = {}
        self._store_dir: Path | None = None

    @property
    def repo(self) -> ProjectRepository:
        """The replay's project store, seeded like the daemon's on first use."""
        if self._store_dir is None:
            self._store_dir = scratch_dir("replay-store-")
            self._repo = ProjectRepository(str(self._store_dir))
            seed_corpus(self._repo)
        return self._repo

    def close(self) -> None:
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)

    def request(self, op: Op, index: int | None = None) -> bytes:
        tracer = self.tracer
        tracer.begin_op(op.kind, index=index, path=op.path,
                        bytes_in=len(op.body or b""))
        if op.path.startswith("/projects"):
            return self._store(op)
        name = ROUTES[op.path]
        with tracer.span("server.parse"):
            payload = json.loads(op.body)
            sha = hashlib.sha256(name.encode() + b"\0" + op.body).hexdigest()
        key = self._key_memo.get(sha)
        if key is None:
            with tracer.span("server.coalesce_key"):
                key = ops.coalesce_key(name, payload)
            self._key_memo[sha] = key
        cached = self._responses.get(key)
        if cached is not None:
            tracer.annotate(disposition="cache", bytes_out=len(cached))
            return cached

        ipc_ms = self.probe.round_trip_ms(payload)
        with tracer.span("server.execute"):
            result = ops.execute(name, payload)
        with tracer.span("server.serialize"):
            body = json_body(result["result"])
        tracer.annotate(
            disposition="computed", bytes_out=len(body), ipc_ms=ipc_ms,
            result=_summary(result["result"]),
        )
        self._responses[key] = body
        return body

    def _store(self, op: Op) -> bytes:
        tracer = self.tracer
        with tracer.span("store." + op.kind.removeprefix("store_")):
            payload = json.loads(op.body) if op.body else {}
            status, doc = store_request(self.repo, op.method, op.path, payload)
        if status != 200:
            raise BenchError(f"replay of {op.path} answered {status}: {doc}")
        with tracer.span("server.serialize"):
            body = json_body(doc)
        tracer.annotate(disposition="store", bytes_out=len(body))
        return body


def _summary(result: dict[str, Any]) -> dict[str, Any]:
    """The few result fields the per-layer metrics read."""
    incremental = result.get("incremental") or {}
    return {k: incremental[k] for k in ("reused_fraction", "n_dirty") if k in incremental}


# --------------------------------------------------------------------- #
# point measurements of single layers, on the workload's own design
# --------------------------------------------------------------------- #
def measure_machine(machine: Any) -> dict[str, float]:
    """``compiled_for`` cold (cleared cache) and warm, in milliseconds."""
    clear_compiled()
    t0 = time.perf_counter()
    compiled_for(machine)
    t1 = time.perf_counter()
    compiled_for(machine)
    t2 = time.perf_counter()
    return {"machine.compile_cold_ms": (t1 - t0) * 1000.0,
            "machine.compile_warm_ms": (t2 - t1) * 1000.0}


def measure_service(flat: Any, machine: Any) -> dict[str, float]:
    """A warm ``ScheduleService`` hit, and a disk hit from a fresh service."""
    cache_dir = scratch_dir("service-cache-")
    try:
        service = ScheduleService(disk_cache=cache_dir)
        service.schedule(flat, machine, "mh")
        t0 = time.perf_counter()
        service.schedule(flat, machine, "mh")
        t1 = time.perf_counter()
        fresh = ScheduleService(disk_cache=cache_dir)
        t2 = time.perf_counter()
        fresh.schedule(flat, machine, "mh")
        t3 = time.perf_counter()
        if fresh.stats().disk_hits != 1:
            raise BenchError("the fresh service did not hit its disk cache")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"sched.service_hit_ms": (t1 - t0) * 1000.0,
            "sched.service_disk_hit_ms": (t3 - t2) * 1000.0}


def measure_store(repo: ProjectRepository, tenant: str, name: str) -> dict[str, float]:
    """``fork`` and ``gc`` on the replay's repository."""
    t0 = time.perf_counter()
    repo.fork(tenant, name, tenant, name + "-fork")
    t1 = time.perf_counter()
    repo.gc()
    t2 = time.perf_counter()
    return {"store.fork_ms": (t1 - t0) * 1000.0,
            "store.gc_ms": (t2 - t1) * 1000.0}
