"""The banger daemon: coalescing, caching, backpressure, draining.

One asyncio event loop owns every connection; CPU-bound work never runs
on it, and neither does parsing or encoding a compute request's JSON.  A
request travels::

    socket -> [backpressure?] -> body-hash -> [idle? body to a worker]
           -> key job: parse + coalesce key -> response cache?
           -> in-flight duplicate? -> worker: parse, run, encode
           -> response bytes -> cache + every coalesced waiter

The coalesce key is content-addressed — ``(project name, graph content_hash,
machine content_hash, scheduler cache key, options)`` via
:func:`repro.server.ops.coalesce_key` — so N concurrent identical
requests cost one scheduler run and share byte-identical responses, and
a warm repeat is a hash lookup.  Identical *bytes* short-circuit even the
parse through a body-hash memo.  The daemon hands a worker the raw body
and gets back the reply bytes the worker encoded, so it parses a body only
in its key job, off the loop.

Keying a new body inflates its project, and so does the worker that runs
it.  When no computation is in flight, the daemon writes the request's job
to a worker *before* its key job starts, so the two run side by side; the
key job waits for that handoff, never for the run, and then only decides
who waits for the run.  A new key makes it the key's in-flight
computation; a cache hit, a coalesced wait or a 400 answers at once, and
the run finishes with nobody waiting, its work still counted.  The gate
keeps the overlap to capacity nobody else is using.

Failure semantics (documented in ``docs/server.md``, asserted by
``tests/server/``): payload problems are 400; backpressure is 503 with
``Retry-After``; a request that outlives ``--timeout`` is 504 and its
worker is recycled; a worker crash is 500 *for that request only*; a
client disconnect cancels its computation (kills the worker) unless other
waiters are coalesced onto it.  SIGTERM/SIGINT stop accepting new
connections, drain every in-flight request, then exit cleanly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import __version__
from repro.errors import ReproError
from repro.lru import LRU
from repro.server import ops as ops_mod
from repro.server.metrics import ServerMetrics
from repro.server.ops import DEBUG_OPS, PROJECT_OPS, coalesce_key, execute
from repro.server.protocol import (
    BufferedConn,
    ProtocolError,
    Request,
    encode_response,
    error_body,
    json_body,
    parse_body,
    read_request,
)
from repro.server.store_api import store_request
from repro.server.workers import WorkerCrash, WorkerPool, WorkerTimeout, serve
from repro.store import ProjectRepository, TenantQuota

#: URL path -> op name.  Debug routes exist only under ``--debug``.
ROUTES = {
    "/lint": "lint",
    "/schedule": "schedule",
    "/sweep": "sweep",
    "/simulate": "simulate",
    "/speedup": "speedup",
    "/codegen": "codegen",
    "/conform": "conform",
}
DEBUG_ROUTES = {
    "/debug/crash": "crash",
    "/debug/sleep": "sleep",
    "/debug/boom": "boom",
}

DEFAULT_PORT = 8045

#: Inline mode (``--workers 0``) is one worker slot that happens to be a
#: thread: one op at a time, so the counter window around an op holds its
#: work alone (and more threads run CPU-bound ops no faster under the GIL).
INLINE_SLOTS = 1

#: Total body bytes the response LRU may hold, on top of its entry bound:
#: 512 replies to a large design (~0.5 MB each) would otherwise pin ~250 MB.
RESPONSE_CACHE_MAX_BYTES = 64 * 1024 * 1024


class _ClientGone(Exception):
    """The client disconnected while its response was being computed."""


@dataclass
class _Inflight:
    """One in-progress computation every identical request shares."""

    future: asyncio.Future
    key: str | None = None  # None until an early run's key is known
    task: asyncio.Task | None = None
    waiters: int = 0
    # Early runs only: set once the job is on a worker's pipe or the run ended
    handoff: asyncio.Event | None = None


@dataclass
class _Outcome:
    status: int
    body: bytes
    kind: str  # computed | timeout | crashed | error
    counters: dict[str, Any] = field(default_factory=dict)


def _default_access_log(record: dict[str, Any]) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def _parse_and_key(op: str, body: bytes) -> str:
    """The key job, on a key thread: the daemon's one parse of a compute
    request's body."""
    return coalesce_key(op, parse_body(body))


class BangerDaemon:
    """The long-lived service behind ``banger serve``.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        ``>= 1``: that many restartable worker *processes*.  ``0``: run
        ops inline, one at a time on one thread (no crash isolation, no
        hard cancellation — meant for tests and tiny deployments).
        ``None``: ``min(4, cpu_count)``.
    queue_limit:
        Max admitted-but-unfinished compute requests; beyond it new work
        is answered 503 immediately (coalesced waiters ride along free).
    request_timeout:
        Per-request compute budget in seconds; exceeding it answers 504
        and recycles the worker.
    cache_entries:
        Entry bound of the response LRU (successful responses only); the
        LRU is also capped at ``RESPONSE_CACHE_MAX_BYTES`` of bodies.
    debug:
        Expose ``/debug/*`` fault-injection routes.
    access_log:
        Callable given one dict per finished request; ``None`` disables.
    store_dir:
        Directory for the project store's persistence; ``None`` keeps it
        in memory (still fully functional for the daemon's lifetime).
    tenant_quota:
        Per-tenant write limits (:class:`repro.store.TenantQuota`)
        enforced on ``/projects`` puts and forks; a violation is answered
        403 with ``Retry-After``, riding the same admission-control path
        as 503 backpressure.  ``None`` disables quotas.
    seed_corpus:
        Publish the built-in scenario corpus (shipped examples + every
        generator family) under the ``corpus`` tenant at startup.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int | None = None,
        queue_limit: int = 64,
        request_timeout: float = 30.0,
        cache_entries: int = 512,
        debug: bool = False,
        access_log: Callable[[dict[str, Any]], None] | None = _default_access_log,
        store_dir: str | None = None,
        tenant_quota: TenantQuota | None = None,
        seed_corpus: bool = True,
    ):
        import os

        self.host = host
        self.port = port
        self.workers = min(4, os.cpu_count() or 1) if workers is None else workers
        if self.workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        self.cache_entries = cache_entries
        self.debug = debug
        self.access_log = access_log
        self.store_dir = store_dir
        self.tenant_quota = tenant_quota
        self.seed_corpus = seed_corpus
        self.store: ProjectRepository | None = None

        self.metrics = ServerMetrics()
        self.pool: WorkerPool | None = None
        self._inline: ThreadPoolExecutor | None = None
        self._keys: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = time.monotonic()

        # coalesce key -> 200 response body; body hash -> coalesce key
        self._cache = LRU(cache_entries, max_bytes=RESPONSE_CACHE_MAX_BYTES)
        self._key_cache = LRU(4096)
        self._key_futures: dict[str, asyncio.Future] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._active_ops = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._compute_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._drain_event: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the socket and spin up the workers."""
        self._drain_event = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.workers >= 1:
            self.pool = WorkerPool(self.workers)
        else:
            self._inline = ThreadPoolExecutor(
                max_workers=INLINE_SLOTS, thread_name_prefix="banger-inline"
            )
        self._keys = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="banger-keys"
        )
        # The project store lives in the daemon process (refs are stateful;
        # worker processes only ever see immutable payloads).  Seeding runs
        # off-loop so a slow disk never delays the socket bind.
        self.store = ProjectRepository(self.store_dir, quota=self.tenant_quota)
        if self.seed_corpus:
            from repro.store.corpus import seed_corpus as _seed

            await asyncio.get_running_loop().run_in_executor(
                self._keys, _seed, self.store
            )
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Graceful stop: refuse new connections, drain, then exit."""
        if self._draining:
            return
        self._draining = True
        assert self._drain_event is not None and self._stopped is not None
        self._drain_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = asyncio.get_running_loop().time() + drain_timeout
        # Computations nobody waits for (unneeded early runs) drain too: a
        # closed pool takes no slot back, so it would wait out its budget.
        while self._conn_tasks or self._compute_tasks:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                for task in self._conn_tasks:
                    task.cancel()
                break
            await asyncio.wait(
                self._conn_tasks | self._compute_tasks, timeout=remaining
            )
        if self.pool is not None:
            await self.pool.close()
        if self._inline is not None:
            self._inline.shutdown(wait=False, cancel_futures=True)
        if self._keys is not None:
            self._keys.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (_ClientGone, ConnectionResetError, BrokenPipeError):
            self.metrics.note_disconnect()
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = BufferedConn(reader)
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        assert self._drain_event is not None
        while True:
            read_task = asyncio.ensure_future(read_request(conn))
            drain_task = asyncio.ensure_future(self._drain_event.wait())
            try:
                done, _ = await asyncio.wait(
                    {read_task, drain_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read_task not in done:
                    # Idle connection during drain: close it; nothing is lost.
                    read_task.cancel()
                    return
            finally:
                drain_task.cancel()

            try:
                request = read_task.result()
            except ProtocolError as exc:
                body = error_body("bad-request", str(exc))
                writer.write(encode_response(400, body, keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return

            t0 = time.perf_counter()
            try:
                status, body, disposition = await self._dispatch(conn, request)
            except _ClientGone:
                self._log(request, client, 499, t0, "disconnect")
                raise
            ms = (time.perf_counter() - t0) * 1000.0
            keep = request.keep_alive and not self._draining
            extra = {"Retry-After": "1"} if status in (403, 503) else None
            # Record before writing: once the bytes are flushed the client
            # may act on them immediately, and observers (tests, scrapers)
            # must already see this request counted.
            self.metrics.observe(request.path, status, ms, disposition)
            self._log(request, client, status, t0, disposition)
            writer.write(
                encode_response(status, body, keep_alive=keep, extra_headers=extra)
            )
            await writer.drain()
            if not keep:
                return

    def _log(self, request: Request, client: str, status: int, t0: float,
             disposition: str) -> None:
        if self.access_log is None:
            return
        self.access_log({
            "ts": round(time.time(), 3),
            "client": client,
            "method": request.method,
            "path": request.path,
            "status": status,
            "ms": round((time.perf_counter() - t0) * 1000.0, 3),
            "disposition": disposition,
            "bytes_in": len(request.body),
        })

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, conn: BufferedConn, request: Request
    ) -> tuple[int, bytes, str]:
        path = request.path
        if path == "/healthz":
            return 200, json_body(self._healthz_doc()), "internal"
        if path == "/metrics":
            return 200, json_body(self._metrics_doc()), "internal"

        # Store requests are admitted like compute work: the same checks,
        # the same queue-limit gate, one ``_active_ops`` slot while running.
        store = path == "/projects" or path.startswith("/projects/")
        op = None if store else ROUTES.get(path)
        if op is None and self.debug:
            op = DEBUG_ROUTES.get(path)
        if op is None and not store:
            return 404, error_body(
                "not-found", f"no such endpoint: {path}",
                endpoints=sorted(ROUTES) + ["/healthz", "/metrics", "/projects"],
            ), "error"
        if request.method != "POST" and not (store and request.method == "GET"):
            return 405, error_body(
                "method-not-allowed",
                f"{path} accepts GET and POST" if store else f"{path} requires POST",
            ), "error"
        if op == "crash" and self.pool is None:
            return 400, error_body(
                "bad-request",
                "/debug/crash needs process workers (start with --workers >= 1)",
            ), "error"

        # Store and debug bodies are small and parsed here, so they are
        # refused 400 before the queue check.  A compute body is parsed only
        # by its key job and its worker, after the queue check.
        payload: dict[str, Any] = {}
        if request.method == "POST" and (store or op in DEBUG_OPS):
            try:
                payload = parse_body(request.body)
            except ProtocolError as exc:
                return 400, error_body("bad-request", str(exc)), "error"

        # Backpressure: admission control before any CPU is spent.
        full = self._overloaded()
        if full is not None:
            return full

        if store:
            run = self._run_store(request.method, path, payload)
            return await self._lead_and_wait(conn, run, key=None)
        if op in DEBUG_OPS:
            # Fault injection must hit the pool every time: no key, no
            # coalescing, no cache.
            return await self._lead_and_wait(
                conn, self._run_op(op, request.body), key=None
            )

        body_sha = hashlib.sha256(op.encode() + b"\0" + request.body).hexdigest()
        key = self._key_cache.get(body_sha)
        early = None if key is not None else self._run_early(op, body_sha, request.body)
        try:
            if key is None:
                try:
                    key = await self._coalesce_key(
                        op, body_sha, request.body,
                        None if early is None else early.handoff,
                    )
                except ReproError as exc:
                    return 400, error_body("bad-request", str(exc)), "error"

            cached = self._cache.get(key)
            if cached is not None:
                return 200, cached, "cache"

            entry = self._inflight.get(key)
            if entry is not None:
                outcome = await self._wait_for_outcome(conn, entry)
                return outcome.status, outcome.body, "coalesced"
            if early is not None:  # a new key, computed since admission
                entry, early = self._adopt(early, key), None
                outcome = await self._wait_for_outcome(conn, entry)
                return outcome.status, outcome.body, outcome.kind
            # Hashing a new body suspended this request; a burst of distinct
            # cold requests must not all slip past the gate while it was open.
            return self._overloaded() or await self._lead_and_wait(
                conn, self._run_op(op, request.body), key=key
            )
        finally:
            if early is not None:  # the key answered without it
                self.metrics.note_ran_early_unneeded()

    def _run_early(self, op: str, body_sha: str, body: bytes) -> _Inflight | None:
        """On an idle daemon, start computing a body nobody is keying yet
        before its key is known."""
        if (
            self.pool is None
            or op not in PROJECT_OPS
            or self._active_ops
            or body_sha in self._key_futures
        ):
            return None
        self.metrics.note_ran_early()
        handoff = asyncio.Event()
        entry = self._lead(self._run_op(op, body, handoff), key=None)
        entry.handoff = handoff
        # A run that ends before its job reaches a pipe releases the key too.
        entry.task.add_done_callback(lambda _: handoff.set())
        return entry

    def _adopt(self, entry: _Inflight, key: str) -> _Inflight:
        """Make an early run the computation of its new ``key``: later bodies
        with that key coalesce on it, and its 200 is cached under it."""
        entry.key = key
        if not entry.future.done():
            self._inflight[key] = entry
        elif entry.future.result().status == 200:  # it finished before its key
            self._cache.put(key, entry.future.result().body)
        return entry

    def _overloaded(self) -> tuple[int, bytes, str] | None:
        """The 503 reply when the queue is at its limit, else ``None``."""
        if self._active_ops < self.queue_limit:
            return None
        return 503, error_body(
            "overloaded",
            f"daemon is at its queue limit ({self.queue_limit} in flight); "
            "retry shortly",
        ), "rejected"

    async def _lead_and_wait(
        self, conn: BufferedConn, run: Awaitable[_Outcome], key: str | None
    ) -> tuple[int, bytes, str]:
        outcome = await self._wait_for_outcome(conn, self._lead(run, key))
        return outcome.status, outcome.body, outcome.kind

    def _lead(self, run: Awaitable[_Outcome], key: str | None) -> _Inflight:
        """Admit ``run`` as a computation, in flight under ``key`` if known."""
        entry = _Inflight(future=asyncio.get_running_loop().create_future(), key=key)
        if key is not None:
            self._inflight[key] = entry
        # Counted from admission, not from the task's first step, so a gate
        # another request checks before that step already sees it.
        self._active_ops += 1
        self.metrics.enter(self._active_ops)
        entry.task = asyncio.ensure_future(self._compute(run, entry))
        self._compute_tasks.add(entry.task)
        entry.task.add_done_callback(self._compute_tasks.discard)
        return entry

    async def _wait_for_outcome(
        self, conn: BufferedConn, entry: _Inflight
    ) -> _Outcome:
        """Await the shared outcome, watching the socket for disconnects."""
        entry.waiters += 1
        watcher = asyncio.ensure_future(conn.peek())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {entry.future, watcher},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if entry.future in done:
                    return entry.future.result()
                data = watcher.result()
                if not data:
                    raise _ClientGone()
                # An eager client sent more bytes (already pushed back);
                # stop watching and just wait for the outcome.
                return await asyncio.shield(entry.future)
        finally:
            entry.waiters -= 1
            watcher.cancel()
            if (
                entry.waiters <= 0
                and not entry.future.done()
                and entry.task is not None
            ):
                # Nobody is listening any more: stop paying for the answer.
                entry.task.cancel()

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    async def _compute(self, run: Awaitable[_Outcome], entry: _Inflight) -> None:
        outcome: _Outcome
        try:
            outcome = await run
        except asyncio.CancelledError:
            if not entry.future.done():
                entry.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 - the response *is* the report
            outcome = _Outcome(
                500, error_body("internal", f"unexpected daemon error: {exc!r}"),
                "error",
            )
        finally:
            self._active_ops -= 1
            self.metrics.exit(self._active_ops)
            if entry.key is not None:
                self._inflight.pop(entry.key, None)
        if outcome.counters:
            self.metrics.fold_work(outcome.counters)
        if entry.key is not None and outcome.status == 200:
            self._cache.put(entry.key, outcome.body)
        if not entry.future.done():
            entry.future.set_result(outcome)

    async def _run_op(
        self, op: str, body: bytes, handoff: asyncio.Event | None = None
    ) -> _Outcome:
        """Serve one job ``(op, body)`` on a worker, or inline; ``handoff``
        is set once a worker has the job."""
        if self.pool is not None:
            try:
                reply = await self.pool.run(
                    op, body, self.request_timeout, sent=handoff
                )
            except WorkerTimeout as exc:
                return _Outcome(504, error_body("timeout", str(exc)), "timeout")
            except WorkerCrash as exc:
                return _Outcome(
                    500, error_body("worker-crash", str(exc)), "crashed"
                )
        else:
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                self._inline, serve, execute, op, body
            )
            try:
                reply = await asyncio.wait_for(
                    asyncio.shield(future), self.request_timeout
                )
            except asyncio.TimeoutError:
                future.add_done_callback(lambda f: f.cancelled() or f.exception())
                return _Outcome(
                    504,
                    error_body(
                        "timeout",
                        f"{op!r} exceeded its {self.request_timeout:g}s budget",
                    ),
                    "timeout",
                )

        if reply[0] == "ok":
            doc = reply[1]
            return _Outcome(200, doc["body"], "computed", counters=doc["counters"])
        _, kind, message = reply
        if reply[0] == "user_error":
            return _Outcome(
                400, error_body("bad-request", message, detail=kind), "error"
            )
        lines = message.splitlines()
        return _Outcome(
            500,
            error_body("internal", (lines and lines[0]) or kind, detail=kind),
            "error",
        )

    async def _run_store(
        self, method: str, path: str, payload: dict[str, Any]
    ) -> _Outcome:
        """One ``/projects`` request, off the event loop.  A quota violation
        is booked like backpressure: 403 carries the ``Retry-After`` 503 does."""
        status, doc = await asyncio.get_running_loop().run_in_executor(
            self._keys, store_request, self.store, method, path, payload
        )
        kind = {200: "computed", 403: "rejected"}.get(status, "error")
        return _Outcome(status, json_body(doc), kind)

    # ------------------------------------------------------------------ #
    # coalesce keys + response cache
    # ------------------------------------------------------------------ #
    async def _coalesce_key(
        self, op: str, body_sha: str, body: bytes,
        handoff: asyncio.Event | None = None,
    ) -> str:
        """The content key of a body the memo missed, memoized by its hash.

        The body is parsed and keyed in one job off the loop, and concurrent
        identical bodies share it.  With an early run, the job starts only
        after ``handoff``: a key thread parsing beside the pipe write would
        hold the interpreter lock the write needs.
        """
        pending = self._key_futures.get(body_sha)
        if pending is None:
            pending = asyncio.ensure_future(self._key_job(op, body, handoff))
            self._key_futures[body_sha] = pending
            try:
                key = await asyncio.shield(pending)
            finally:
                self._key_futures.pop(body_sha, None)
        else:
            key = await asyncio.shield(pending)
        self._key_cache.put(body_sha, key)
        return key

    async def _key_job(
        self, op: str, body: bytes, handoff: asyncio.Event | None
    ) -> str:
        if handoff is not None:
            await handoff.wait()
        return await asyncio.get_running_loop().run_in_executor(
            self._keys, _parse_and_key, op, body
        )

    # ------------------------------------------------------------------ #
    # introspection documents
    # ------------------------------------------------------------------ #
    def _worker_doc(self) -> dict[str, Any]:
        if self.pool is not None:
            doc = self.pool.stats()
            doc["mode"] = "process"
            return doc
        return {"mode": "inline", "size": INLINE_SLOTS, "alive": INLINE_SLOTS,
                "restarts": 0, "crashes": 0, "timeouts": 0}

    def _healthz_doc(self) -> dict[str, Any]:
        return {
            "type": "banger-healthz",
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self._worker_doc(),
        }

    def _metrics_doc(self) -> dict[str, Any]:
        return {
            "type": "banger-metrics",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "server": self.metrics.as_dict(),
            "workers": self._worker_doc(),
            "response_cache": {
                "entries": len(self._cache),
                "max_entries": self.cache_entries,
                "bytes": self._cache.bytes,
                "max_bytes": RESPONSE_CACHE_MAX_BYTES,
            },
            "store": self.store.stats() if self.store is not None else None,
        }


# --------------------------------------------------------------------- #
# entry point used by `banger serve`
# --------------------------------------------------------------------- #
async def run_daemon(
    daemon: BangerDaemon,
    install_signals: bool = True,
    ready: Callable[[BangerDaemon], None] | None = None,
) -> None:
    """Start ``daemon``, wire SIGTERM/SIGINT to graceful drain, serve."""
    await daemon.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(daemon.shutdown())
                )
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
    if ready is not None:
        ready(daemon)
    await daemon.serve_forever()
