"""Shared harness for the daemon tests.

Runs a real :class:`BangerDaemon` on an ephemeral port inside a
background thread that owns its own event loop; tests talk to it over
actual sockets with the blocking :class:`BangerClient`.  Inline mode
(``workers=0``) keeps all computation in this process, one op at a time,
so tests can compare :func:`kernel_counters` and the shared
:class:`ScheduleService` stats before and after a request.
"""

from __future__ import annotations

import asyncio
import http.client
import threading

import pytest

from repro.apps import lu3_design
from repro.client import BangerClient, wait_until_ready
from repro.env.project import BangerProject
from repro.machine import MachineParams
from repro.server import BangerDaemon, run_daemon
from repro.server.ops import shared_service


class DaemonHarness:
    """One daemon in a background thread, plus a ready client."""

    def __init__(self, **daemon_kwargs):
        daemon_kwargs.setdefault("port", 0)
        daemon_kwargs.setdefault("access_log", self._record)
        self.records: list[dict] = []
        self.daemon = BangerDaemon(**daemon_kwargs)
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self.client: BangerClient | None = None

    def _record(self, record: dict) -> None:
        self.records.append(record)

    def start(self) -> "DaemonHarness":
        def runner() -> None:
            loop = asyncio.new_event_loop()
            self.loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(
                    run_daemon(
                        self.daemon,
                        install_signals=False,
                        ready=lambda d: self._ready.set(),
                    )
                )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="daemon-harness", daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=15), "daemon did not come up"
        self.client = wait_until_ready(port=self.daemon.port, timeout=15)
        return self

    def post_bytes(self, path: str, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` as it is; the status and the reply's very bytes."""
        conn = http.client.HTTPConnection(self.daemon.host, self.daemon.port, timeout=60)
        try:
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def submit(self, coro):
        """Run a coroutine on the daemon's loop from the test thread."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def stop(self) -> None:
        if self.loop is None or self._thread is None:
            return
        # A test that shut the daemon down itself leaves a loop that is
        # finishing: a coroutine submitted now may never run, so only join.
        if not self.loop.is_closed() and not self.daemon._draining:
            try:
                self.submit(self.daemon.shutdown()).result(timeout=30)
            except Exception:
                pass
        self._thread.join(timeout=30)


@pytest.fixture
def daemon_factory():
    """Build (and always tear down) daemons with arbitrary settings."""
    harnesses: list[DaemonHarness] = []

    def make(**kwargs) -> DaemonHarness:
        # Inline daemons share this process's schedule cache; start every
        # test from a cold one so each request's work is a real run.
        shared_service().clear()
        harness = DaemonHarness(**kwargs).start()
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        harness.stop()


@pytest.fixture
def project_doc():
    """The Figure 1 LU-decomposition project as a saved document."""
    project = BangerProject("figure1").set_design(lu3_design())
    project.set_machine(
        "hypercube", 4, MachineParams(msg_startup=0.2, transmission_rate=20.0)
    )
    return project.to_dict()
