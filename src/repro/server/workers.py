"""A bounded pool of restartable worker processes for CPU-bound ops.

Why not one :mod:`concurrent.futures` process pool?  Because a dead
worker breaks the *whole* pool there — every in-flight future fails with
its broken-pool error.  The daemon's contract is stricter: a crash fails
only the request that was running on the dead worker, and the worker is
replaced before the next request needs it.  So each slot here is its own
``multiprocessing.Process`` with a private duplex pipe:

* **submit** — the slot is checked out of an :class:`asyncio.LifoQueue`
  (one job per slot at a time; the slot freed last, whose caches are the
  warmest, takes the next job), the job ``(op, body)`` — the raw request
  body, not a parsed payload — written down the pipe, and the reply
  awaited in a thread so the event loop never blocks;
* **crash** — the child dying mid-job surfaces as ``EOFError`` on the
  pipe; the slot restarts its process and only that request fails with
  :class:`WorkerCrash`;
* **timeout / cancellation** — a request that outlives its budget (or
  whose client disconnected) gets its worker *terminated* — the only way
  to actually stop CPU-bound Python — and the slot restarts;
* **drain** — :meth:`WorkerPool.close` finishes politely: a ``None``
  sentinel per slot, a bounded join, then force-kill.

A worker serves a job start to finish (:func:`serve`): it reads the body
through its request memo, runs :func:`repro.server.ops.execute` on it,
and sends back the reply already encoded as response bytes, beside the
work counters the daemon aggregates into ``/metrics``.  The daemon routes
bytes, and caches them by the body's hash; the process that does the work
also decodes and encodes it, and holds the content-addressed caches: its
:class:`~repro.sched.service.ScheduleService`, with its IR cache, and its
request memo.

Each worker keeps its last request in a
:class:`~repro.server.memo.RequestMemo`: the body's text, the payload
parsed from it, and the design, machine, flat graph and base placements
built from that.  The next body is compared with the kept text, and only
the parts whose text changed are decoded; a body that is no JSON object is
refused by the daemon's own parser, :func:`parse_body`, message for
message.  The slot freed last takes the next job, so an editing client's
next edit lands on the worker that holds its last one, and costs the nodes
it changed rather than the whole design.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Callable

from repro.errors import ReproError
from repro.server.memo import RequestMemo
from repro.server.ops import execute
from repro.server.protocol import json_body, parse_body


class WorkerError(ReproError):
    """Base class for pool-level failures (not op-level ones)."""


class WorkerCrash(WorkerError):
    """The worker process died mid-request (only that request fails)."""


class WorkerTimeout(WorkerError):
    """The request outlived its budget; its worker was killed and replaced."""


def serve(run: Callable[[str, dict[str, Any]], Any], op: str,
          body: bytes | dict[str, Any], memo: RequestMemo | None = None) -> tuple:
    """One job: parse ``body``, ``run`` the op on it, encode the reply.

    Returns the outcome tuple a worker sends up its pipe and the daemon's
    inline mode builds in a thread: ``("ok", {"body": <response bytes>,
    "counters": {...}})``, ``("user_error", kind, message)`` for a
    :class:`ReproError` (the body's parse included), or ``("error", kind,
    message + traceback)``.  The counters are those ``run`` returns beside
    its ``result``, the work it measured (:func:`repro.server.ops.execute`).
    With a ``memo`` the body is read against the text of the memo's last
    request, decoding only what changed, and the op's project is patched
    from what that request built (:mod:`repro.server.memo`); the payload
    and every refusal are :func:`parse_body`'s.  A dict ``body`` is taken as
    already parsed, and never memoized: only a document parsed here is
    sure to stay as it was.
    """
    try:
        if isinstance(body, dict):
            job = nullcontext(body)
        elif memo is None:
            job = nullcontext(parse_body(body))
        else:
            job = memo.serving(body)
        with job as payload:
            done = run(op, payload)
            encoded = json_body(done["result"])
        return ("ok", {"body": encoded, "counters": done["counters"]})
    except ReproError as exc:
        return ("user_error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, never raised
        return ("error", type(exc).__name__,
                f"{exc}\n{traceback.format_exc(limit=8)}")


def _worker_main(conn) -> None:
    """The child's loop: recv a job ``(op, body)``, serve it with the
    worker's own memo (empty at every start), and send the outcome."""
    memo = RequestMemo()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:  # polite shutdown sentinel
            return
        op, body = job
        try:
            conn.send(serve(execute, op, body, memo))
        except (BrokenPipeError, OSError):
            return
        # The memo keeps the body's decoded text, not its bytes: kept as
        # loop variables, the finished body would stay alive through the
        # next recv and sit beside the next one in RSS.
        del job, body


def _pick_context() -> mp.context.BaseContext:
    """Fork where available (fast restarts); spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class WorkerSlot:
    """One restartable worker process plus its private pipe."""

    def __init__(self, ctx: mp.context.BaseContext, index: int):
        self._ctx = ctx
        self.index = index
        self.restarts = 0
        self._proc: mp.process.BaseProcess | None = None
        self._conn = None
        self._start()

    def _start(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"banger-worker-{self.index}",
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def restart(self) -> None:
        """Kill whatever the slot is doing and bring up a fresh process."""
        self.kill()
        self.restarts += 1
        self._start()

    def kill(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - stuck in a syscall
                self._proc.kill()
                self._proc.join(timeout=5.0)
            self._proc = None

    def request_stop(self) -> None:
        """Ask the worker to exit after its current job (drain path)."""
        if self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass

    def run_blocking(self, op: str, body: bytes | dict[str, Any]) -> tuple:
        """Ship one job and block for its reply (called from a thread).

        Raises ``EOFError``/``OSError`` when the child dies mid-job.
        """
        conn = self._conn
        if conn is None or not self.alive:
            raise EOFError("worker process is not running")
        conn.send((op, body))
        return conn.recv()


class WorkerPool:
    """``size`` worker slots behind an async checkout queue."""

    def __init__(self, size: int):
        if size < 1:
            raise WorkerError(f"pool size must be >= 1, got {size}")
        self.size = size
        ctx = _pick_context()
        self._slots = [WorkerSlot(ctx, i) for i in range(size)]
        self._free: asyncio.LifoQueue[WorkerSlot] = asyncio.LifoQueue()
        for slot in self._slots:
            self._free.put_nowait(slot)
        # One thread per slot: each does nothing but block on its slot's
        # pipe while a job runs, so the event loop stays free.
        self._threads = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="banger-pool"
        )
        self._closed = False
        self._lock = threading.Lock()
        self.crashes = 0
        self.timeouts = 0

    @property
    def restarts(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    async def run(
        self,
        op: str,
        body: bytes | dict[str, Any],
        timeout: float | None = None,
    ) -> tuple:
        """Run one op on the next free worker.

        ``body`` is the raw request body (a dict is taken as already
        parsed).  Returns the worker's outcome tuple (see :func:`serve`).
        Raises :class:`WorkerCrash`, :class:`WorkerTimeout`, or propagates
        :class:`asyncio.CancelledError` after killing the worker.
        """
        if self._closed:
            raise WorkerError("pool is closed")
        slot = await self._free.get()
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(
                self._threads, slot.run_blocking, op, body
            )
            try:
                outcome = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                # Checked before OSError: TimeoutError *is* an OSError
                # subclass, and this one means budget exceeded, not crash.
                with self._lock:
                    self.timeouts += 1
                slot.restart()
                self._swallow(future)
                raise WorkerTimeout(
                    f"{op!r} exceeded its {timeout:g}s budget; "
                    f"worker {slot.index} was recycled"
                ) from None
            except (EOFError, OSError) as exc:
                with self._lock:
                    self.crashes += 1
                slot.restart()
                raise WorkerCrash(
                    f"worker {slot.index} died while serving {op!r}"
                ) from exc
            except asyncio.CancelledError:
                # Client went away: the kill is the cancellation.
                slot.restart()
                self._swallow(future)
                raise
            return outcome
        finally:
            if not self._closed:
                self._free.put_nowait(slot)

    @staticmethod
    def _swallow(future: asyncio.Future) -> None:
        """The blocked pipe-read thread unblocks with EOF after the kill;
        consume its exception so nothing logs 'exception never retrieved'."""
        def _done(f: asyncio.Future) -> None:
            if not f.cancelled():
                f.exception()
        future.add_done_callback(_done)

    async def close(self, drain_timeout: float = 10.0) -> None:
        """Stop every worker: sentinel, bounded join, then terminate."""
        self._closed = True
        # Collect every slot back (waits for running jobs to check back in).
        held: list[WorkerSlot] = []
        deadline = asyncio.get_running_loop().time() + drain_timeout
        while len(held) < len(self._slots):
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            try:
                held.append(
                    await asyncio.wait_for(self._free.get(), timeout=remaining)
                )
            except asyncio.TimeoutError:
                break
        for slot in self._slots:
            slot.request_stop()
        await asyncio.get_running_loop().run_in_executor(
            None, self._join_all
        )
        self._threads.shutdown(wait=False, cancel_futures=True)

    def _join_all(self) -> None:
        for slot in self._slots:
            slot.kill()

    def stats(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "alive": sum(1 for s in self._slots if s.alive),
            "restarts": self.restarts,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
        }
