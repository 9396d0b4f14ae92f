"""The banger daemon: coalescing, caching, backpressure, draining.

One asyncio event loop owns every connection; CPU-bound work never runs
on it, and neither does parsing or encoding a compute request's JSON.  A
compute request is known by its body hash, ``sha256(op + "\0" + body)``,
and travels::

    socket -> response cache?             -> the cached bytes  (cache)
           -> same hash in flight?        -> its bytes         (coalesced)
           -> [backpressure?] -> worker: parse, build, run, encode
           -> response bytes -> cache + every coalesced waiter  (computed)

So N concurrent identical requests cost one run and share byte-identical
responses, and a repeat is a hash lookup.  The daemon hands a worker the
raw body and gets back the reply bytes the worker encoded, so it never
parses a compute body at all.  Clients encode canonically
(``json.dumps(sort_keys=True)``), so equal content arrives as equal bytes;
a body whose bytes are new runs, and content addressing happens where the
work is done: the worker's schedule cache answers a schedule it has made
before, and its request memo (:mod:`repro.server.memo`) decodes only the
text that changed since its last request and patches the project from it
when only task fields changed.

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
import shutil
import signal
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import __version__
from repro.errors import ReproError
from repro.lru import LRU
from repro.server.memo import RequestMemo
from repro.server.metrics import ServerMetrics
from repro.server.ops import DEBUG_OPS, execute
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
    body: str | None = None  # the body hash it runs, for a compute job
    task: asyncio.Task | None = None
    waiters: int = 0


@dataclass
class _Outcome:
    status: int
    body: bytes
    kind: str  # computed | timeout | crashed | error
    counters: dict[str, Any] = field(default_factory=dict)


def _reply_outcome(reply: tuple) -> _Outcome:
    """A job's outcome tuple (:func:`serve`) as the daemon's reply."""
    if reply[0] == "ok":
        doc = reply[1]
        return _Outcome(200, doc["body"], "computed", counters=doc["counters"])
    outcome, kind, message = reply
    if outcome == "user_error":
        return _Outcome(
            400, error_body("bad-request", message, detail=kind), "error"
        )
    lines = message.splitlines()
    return _Outcome(
        500,
        error_body("internal", (lines and lines[0]) or kind, detail=kind),
        "error",
    )


def _default_access_log(record: dict[str, Any]) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


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
        ``0`` caches nothing.
    debug:
        Expose ``/debug/*`` fault-injection routes.
    access_log:
        Callable given one dict per finished request; ``None`` disables.
    store_dir:
        Directory that is the project store; ``None`` keeps the store in a
        private scratch directory that :meth:`shutdown` removes, so it lives
        as long as the daemon.
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
        if cache_entries < 0:
            raise ReproError(f"cache_entries must be >= 0, got {cache_entries}")
        if queue_limit < 1:
            raise ReproError(f"queue_limit must be >= 1, got {queue_limit}")
        if not request_timeout > 0:
            raise ReproError(f"request_timeout must be > 0, got {request_timeout}")
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        self.cache_entries = cache_entries
        self.debug = debug
        self.access_log = access_log
        self.store_dir = store_dir
        self.tenant_quota = tenant_quota
        self.seed_corpus = seed_corpus
        self.store: ProjectRepository | None = None
        self._scratch_store: str | None = None  # made by start() without store_dir

        self.metrics = ServerMetrics()
        self.pool: WorkerPool | None = None
        self._inline: ThreadPoolExecutor | None = None
        self._store_threads: ThreadPoolExecutor | None = None
        # What the inline slot built for its last request; a worker process
        # keeps its own.
        self._inline_memo = RequestMemo()
        self._server: asyncio.AbstractServer | None = None
        self._started = time.monotonic()

        # body hash -> 200 response body, and the computations in flight
        self._cache = LRU(cache_entries, max_bytes=RESPONSE_CACHE_MAX_BYTES)
        self._inflight: dict[str, _Inflight] = {}
        self._active_ops = 0
        self._conn_tasks: set[asyncio.Task] = set()
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
        self._store_threads = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="banger-store"
        )
        # The project store lives in the daemon process (refs are stateful;
        # worker processes only ever see immutable payloads).  Seeding runs
        # off-loop so a slow disk never delays the socket bind.
        root = self.store_dir
        if root is None:
            root = self._scratch_store = tempfile.mkdtemp(prefix="banger-store-")
        self.store = ProjectRepository(root, quota=self.tenant_quota)
        if self.seed_corpus:
            from repro.store.corpus import seed_corpus as _seed

            await asyncio.get_running_loop().run_in_executor(
                self._store_threads, _seed, self.store
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
        while self._conn_tasks:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                for task in self._conn_tasks:
                    task.cancel()
                break
            await asyncio.wait(self._conn_tasks, timeout=remaining)
        if self.pool is not None:
            await self.pool.close()
        if self._inline is not None:
            self._inline.shutdown(wait=False, cancel_futures=True)
        if self._store_threads is not None:
            # wait for a running store action: it may still write the scratch store
            self._store_threads.shutdown(
                wait=self._scratch_store is not None, cancel_futures=True
            )
        if self._scratch_store is not None:
            shutil.rmtree(self._scratch_store, ignore_errors=True)
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
            await self._serve_connection(reader, writer)
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

    async def _serve_connection(
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

        # Store and debug bodies are small and parsed here, so a malformed
        # one is answered 400 before the queue check.  A compute body is
        # parsed only by the worker that runs it, after the queue check.
        if store or op in DEBUG_OPS:
            payload: dict[str, Any] = {}
            if request.method == "POST":
                try:
                    payload = parse_body(request.body)
                except ProtocolError as exc:
                    return 400, error_body("bad-request", str(exc)), "error"
            if store:
                return await self._lead_and_wait(
                    conn, lambda: self._run_store(request.method, path, payload)
                )
            # Fault injection must hit the pool every time: no coalescing,
            # no cache.
            return await self._lead_and_wait(
                conn, lambda: self._run_op(op, request.body)
            )

        body_sha = hashlib.sha256(op.encode() + b"\0" + request.body).hexdigest()
        cached = self._cache.get(body_sha)
        if cached is not None:
            return 200, cached, "cache"
        entry = self._inflight.get(body_sha)
        if entry is not None:
            outcome = await self._wait_for_outcome(conn, entry)
            return outcome.status, outcome.body, "coalesced"
        return await self._lead_and_wait(
            conn, lambda: self._run_op(op, request.body), body_sha
        )

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
        self, conn: BufferedConn, run: Callable[[], Awaitable[_Outcome]],
        body: str | None = None,
    ) -> tuple[int, bytes, str]:
        """Admit ``run()`` as a computation, in flight under the ``body``
        hash given, and wait for its outcome.  Backpressure is admission
        control before any CPU is spent: at the queue limit the request is
        answered 503.  Nothing awaits between the check and the entry's
        registration, so this is the request's admission."""
        full = self._overloaded()
        if full is not None:
            return full
        entry = _Inflight(future=asyncio.get_running_loop().create_future(),
                          body=body)
        if body is not None:
            self._inflight[body] = entry
        # Counted from admission, not from the task's first step, so a gate
        # another request checks before that step already sees it.
        self._active_ops += 1
        self.metrics.enter(self._active_ops)
        entry.task = asyncio.ensure_future(self._compute(run(), entry))
        outcome = await self._wait_for_outcome(conn, entry)
        return outcome.status, outcome.body, outcome.kind

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
            watcher.cancel()
            self._leave(entry)

    @staticmethod
    def _leave(entry: _Inflight) -> None:
        """One waiter stops waiting for ``entry``."""
        entry.waiters -= 1
        if entry.waiters <= 0 and not entry.future.done() and entry.task is not None:
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
            self._inflight.pop(entry.body, None)
        if outcome.counters:
            self.metrics.fold_work(outcome.counters)
        if entry.body is not None and outcome.status == 200:
            self._cache.put(entry.body, outcome.body)
        if not entry.future.done():
            entry.future.set_result(outcome)

    async def _run_op(self, op: str, body: bytes) -> _Outcome:
        """Serve one job ``(op, body)`` on a worker, or inline."""
        if self.pool is not None:
            try:
                reply = await self.pool.run(op, body, self.request_timeout)
            except WorkerTimeout as exc:
                return _Outcome(504, error_body("timeout", str(exc)), "timeout")
            except WorkerCrash as exc:
                return _Outcome(
                    500, error_body("worker-crash", str(exc)), "crashed"
                )
            return _reply_outcome(reply)
        future = asyncio.get_running_loop().run_in_executor(
            self._inline, serve, execute, op, body, self._inline_memo
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
        return _reply_outcome(reply)

    async def _run_store(
        self, method: str, path: str, payload: dict[str, Any]
    ) -> _Outcome:
        """One ``/projects`` request, off the event loop.  A quota violation
        is booked like backpressure: 403 carries the ``Retry-After`` 503 does."""
        status, doc = await asyncio.get_running_loop().run_in_executor(
            self._store_threads, store_request, self.store, method, path, payload
        )
        kind = {200: "computed", 403: "rejected"}.get(status, "error")
        return _Outcome(status, json_body(doc), kind)

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
