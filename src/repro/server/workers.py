"""A bounded pool of restartable worker processes for CPU-bound ops.

Why not one :mod:`concurrent.futures` process pool?  Because a dead
worker breaks the *whole* pool there — every in-flight future fails with
its broken-pool error.  The daemon's contract is stricter: a crash fails
only the request that was running on the dead worker, and the worker is
replaced before the next request needs it.  So each slot here is its own
``multiprocessing.Process`` with a private duplex pipe:

* **submit** — the slot is checked out of an :class:`asyncio.LifoQueue`
  (one job per slot at a time; the slot freed last, whose caches are the
  warmest, takes the next job), the job pickled down the pipe, and the
  reply awaited on the slot's own thread so the event loop never blocks;
* **prepare** — :meth:`WorkerPool.prepare` checks a free slot out early,
  pinned to one payload object, and ships that payload for the worker to
  derive its project (:func:`repro.server.ops.prepare`) while the daemon is
  still deciding whether it needs the answer; the :meth:`WorkerPool.run`
  given the same payload takes the pinned slot and sends only the verb,
  and :meth:`WorkerPool.drop` hands the slot back unused;
* **crash** — the child dying mid-job surfaces as ``EOFError`` on the
  pipe; the slot restarts its process and only that request fails with
  :class:`WorkerCrash`;
* **timeout / cancellation** — a request that outlives its budget (or
  whose client disconnected) gets its worker *terminated* — the only way
  to actually stop CPU-bound Python — and the slot restarts;
* **drain** — :meth:`WorkerPool.close` finishes politely: a ``None``
  sentinel per slot, a bounded join, then force-kill.

Workers run :func:`repro.server.ops.execute`, so every reply carries the
work counters the daemon aggregates into ``/metrics``.  Every pipe exchange
with a worker runs on its slot's one thread, in the order it was asked for,
so a job sent after a prepare cannot overtake it.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import ReproError
from repro.server.ops import execute, prepare


class WorkerError(ReproError):
    """Base class for pool-level failures (not op-level ones)."""


class WorkerCrash(WorkerError):
    """The worker process died mid-request (only that request fails)."""


class WorkerTimeout(WorkerError):
    """The request outlived its budget; its worker was killed and replaced."""


def classify(run: Callable[..., Any], *args: Any) -> tuple:
    """Run one op and classify what happened: the outcome tuple a worker
    sends up its pipe and the daemon's inline mode builds in a thread."""
    try:
        return ("ok", run(*args))
    except ReproError as exc:
        return ("user_error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, never raised
        return ("error", type(exc).__name__,
                f"{exc}\n{traceback.format_exc(limit=8)}")


def _worker_main(conn) -> None:
    """The child's loop: recv a job ``(verb, op, payload)``, do it, reply.

    ``prepare`` derives the op's project and holds it, replying nothing; a
    ``run`` whose payload is ``None`` runs on what was held, any other
    ``run`` from scratch; ``drop`` forgets what was held and acknowledges,
    which it can only do once the prepare before it has finished.
    """
    held: tuple[dict[str, Any], Any] | None = None
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:  # polite shutdown sentinel
            return
        try:
            held = _handle(conn, job, held)
        except (BrokenPipeError, OSError):
            return


def _handle(conn, job: tuple, held: tuple[dict[str, Any], Any] | None):
    """One job; returns what a ``run`` after it may run on.

    Its own function so that a run's project and reply die when it returns
    instead of staying alive, as loop variables, through the next prepare.
    """
    verb, op, payload = job
    if verb == "prepare":
        try:
            return payload, prepare(op, payload)
        except Exception:  # noqa: BLE001 - the run re-derives and reports it
            return payload, None
    project = None
    if verb == "run" and payload is None:
        payload, project = held
    conn.send(classify(execute, op, payload, project) if verb == "run" else ("dropped",))
    return None


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
        # The loop restarts a slot whose job failed, the slot's thread one
        # whose dropped prepare killed it: never both at once.
        self._restarting = threading.Lock()
        self.thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"banger-pool-{index}"
        )
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
        with self._restarting:
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

    def send(self, job: tuple) -> Any:
        """Ship one job (on :attr:`thread`); returns the pipe it went down.

        Raises ``EOFError``/``OSError`` when the child is dead.
        """
        conn = self._conn
        if conn is None or not self.alive:
            raise EOFError("worker process is not running")
        conn.send(job)
        return conn

    def run_blocking(self, job: tuple) -> tuple:
        """Ship one job and block for its reply (on :attr:`thread`).

        Raises ``EOFError``/``OSError`` when the child dies mid-job.
        """
        return self.send(job).recv()


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
        # id(payload) -> (payload, the slot prepare() pinned to it)
        self._pinned: dict[int, tuple[dict[str, Any], WorkerSlot]] = {}
        self._closed = False
        self._lock = threading.Lock()
        self.crashes = 0
        self.timeouts = 0

    @property
    def restarts(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def prepare(self, op: str, payload: dict[str, Any]) -> bool:
        """Check out the next free slot, if one is free now, and have its
        worker start deriving ``op``'s project from ``payload``.

        The slot stays pinned to this ``payload`` object until :meth:`run`
        or :meth:`drop` is given it.  ``False`` (nothing pinned) when every
        slot is busy.
        """
        if self._closed or self._free.empty():
            return False
        slot = self._free.get_nowait()
        self._pinned[id(payload)] = (payload, slot)
        # Nothing reads this send's outcome: if it fails the worker is dead,
        # and the run or drop queued behind it on the same thread finds that.
        slot.thread.submit(slot.send, ("prepare", op, payload))
        return True

    def drop(self, payload: dict[str, Any]) -> bool:
        """Hand back, unused, the slot :meth:`prepare` pinned to ``payload``.

        The slot is free again at once; its thread tells the worker to forget
        the project before any later job, and restarts a worker the prepare
        killed.  ``False`` when no slot is pinned to ``payload`` (none was, or
        :meth:`run` took it).
        """
        pin = self._pinned.pop(id(payload), None)
        if pin is None:
            return False
        slot = pin[1]
        slot.thread.submit(self._forget, slot)
        self._release(slot)
        return True

    def _forget(self, slot: WorkerSlot) -> None:
        try:
            slot.run_blocking(("drop", None, None))
        except (EOFError, OSError):
            with self._lock:
                self.crashes += 1
            slot.restart()

    def _release(self, slot: WorkerSlot) -> None:
        if not self._closed:
            self._free.put_nowait(slot)

    async def run(
        self, op: str, payload: dict[str, Any], timeout: float | None = None
    ) -> tuple:
        """Run one op on the slot :meth:`prepare` pinned to ``payload``, or
        else on the next free worker.

        Returns the worker's outcome tuple (``("ok", ...)`` /
        ``("user_error", ...)`` / ``("error", ...)``).  Raises
        :class:`WorkerCrash`, :class:`WorkerTimeout`, or propagates
        :class:`asyncio.CancelledError` after killing the worker.
        """
        if self._closed:
            raise WorkerError("pool is closed")
        pin = self._pinned.pop(id(payload), None)
        if pin is not None:
            slot, job = pin[1], ("run", op, None)
        else:
            slot, job = await self._free.get(), ("run", op, payload)
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(slot.thread, slot.run_blocking, job)
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
            self._release(slot)

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

    def _join_all(self) -> None:
        for slot in self._slots:
            slot.kill()
            slot.thread.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "alive": sum(1 for s in self._slots if s.alive),
            "restarts": self.restarts,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
        }
