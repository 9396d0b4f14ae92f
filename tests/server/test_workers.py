"""Failure semantics: crashes, timeouts, backpressure, disconnects, drain."""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.client import BangerClient, ServerError, wait_until_ready
from repro.errors import ReproError
from repro.server import BangerDaemon
from repro.server.ops import execute
from repro.server.workers import WorkerCrash, WorkerPool, WorkerTimeout, serve

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.mark.parametrize("seconds", ["abc", "nan", [1], "inf", -1])
def test_a_bad_sleep_is_the_callers_error(seconds):
    """The debug ``sleep`` op types its option like any other: a 400,
    never a 500."""
    outcome = serve(execute, "sleep", {"seconds": seconds})
    assert outcome[:2] == ("user_error", "OpError"), outcome
    assert outcome[2].startswith("seconds must be"), outcome


@pytest.mark.parametrize("bound", [
    {"queue_limit": 0}, {"request_timeout": 0}, {"request_timeout": -1.0},
    {"request_timeout": float("nan")}, {"workers": -1}, {"cache_entries": -1},
], ids=repr)
def test_the_daemon_refuses_a_bound_that_would_fail_every_request(bound):
    """``queue_limit=0`` answered every compute request 503, and a timeout
    of 0 or less 504, with process workers killing each one's worker.  The
    daemon refuses them itself, whoever builds it."""
    (name, _), = bound.items()
    with pytest.raises(ReproError, match=f"^{name} must be"):
        BangerDaemon(**{"port": 0, "workers": 0, "access_log": None, **bound})


class TestWorkerPool:
    """The pool in isolation, no HTTP involved."""

    def test_ok_crash_timeout_and_recovery(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                outcome = await pool.run("sleep", {"seconds": 0}, timeout=30)
                assert outcome[0] == "ok"

                with pytest.raises(WorkerCrash):
                    await pool.run("crash", {}, timeout=30)
                # the slot restarted; the pool still serves
                outcome = await pool.run("sleep", {"seconds": 0}, timeout=30)
                assert outcome[0] == "ok"

                with pytest.raises(WorkerTimeout):
                    await pool.run("sleep", {"seconds": 30}, timeout=0.3)
                outcome = await pool.run("sleep", {"seconds": 0}, timeout=30)
                assert outcome[0] == "ok"

                stats = pool.stats()
                assert stats["crashes"] == 1
                assert stats["timeouts"] == 1
                assert stats["restarts"] == 2
                assert stats["alive"] == 1
            finally:
                await pool.close()

        asyncio.run(scenario())

    def test_user_errors_travel_as_outcomes_not_crashes(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                outcome = await pool.run("lint", {"project": "nope"}, timeout=30)
                assert outcome[0] == "user_error"
                outcome = await pool.run("boom", {}, timeout=30)
                assert outcome[0] == "error"
                assert outcome[1] == "RuntimeError"
            finally:
                await pool.close()

        asyncio.run(scenario())


class TestDaemonFailures:
    def test_worker_crash_fails_only_its_own_request(
        self, daemon_factory, project_doc
    ):
        harness = daemon_factory(workers=2, debug=True)
        results: dict[str, object] = {}

        def crasher():
            try:
                BangerClient(port=harness.daemon.port).post("/debug/crash", {})
                results["crash"] = "no error"
            except ServerError as exc:
                results["crash"] = exc

        def scheduler():
            time.sleep(0.05)  # let the crasher claim its worker first
            results["schedule"] = BangerClient(
                port=harness.daemon.port
            ).schedule(project_doc, scheduler="mh")

        threads = [threading.Thread(target=crasher),
                   threading.Thread(target=scheduler)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        crash = results["crash"]
        assert isinstance(crash, ServerError)
        assert crash.status == 500
        assert crash.doc["kind"] == "worker-crash"
        # the innocent bystander got its answer
        assert results["schedule"]["makespan"] > 0

        health = harness.client.healthz()
        assert health["workers"]["alive"] == 2
        assert health["workers"]["crashes"] == 1
        assert harness.client.metrics()["server"]["worker_crashes"] == 1

    def test_timeout_answers_504_and_recycles_worker(self, daemon_factory):
        harness = daemon_factory(workers=1, debug=True, request_timeout=0.4)
        with pytest.raises(ServerError) as err:
            harness.client.post("/debug/sleep", {"seconds": 30})
        assert err.value.status == 504
        assert err.value.doc["kind"] == "timeout"
        # worker was killed and replaced; daemon still serves
        outcome = harness.client.post("/debug/sleep", {"seconds": 0})
        assert outcome["type"] == "banger-sleep"
        health = harness.client.healthz()
        assert health["workers"]["timeouts"] == 1
        assert health["workers"]["alive"] == 1

    def test_backpressure_rejects_with_503(self, daemon_factory):
        harness = daemon_factory(workers=2, debug=True, queue_limit=2)
        holders = [
            threading.Thread(
                target=lambda: BangerClient(port=harness.daemon.port, timeout=30)
                .post("/debug/sleep", {"seconds": 1.2})
            )
            for _ in range(2)
        ]
        for t in holders:
            t.start()
        time.sleep(0.4)  # both sleeps admitted and occupying the queue
        try:
            with pytest.raises(ServerError) as err:
                harness.client.post("/debug/sleep", {"seconds": 0})
            assert err.value.status == 503
            assert err.value.doc["kind"] == "overloaded"
        finally:
            for t in holders:
                t.join(timeout=30)
        assert harness.client.metrics()["server"]["rejected"] >= 1
        # once the holders drain, new work is admitted again
        assert harness.client.post("/debug/sleep", {"seconds": 0})["type"] == (
            "banger-sleep"
        )

    def test_burst_of_distinct_cold_requests_cannot_overshoot_the_queue(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """A request is admitted the moment it leads a job, before its
        worker keys it: the first fills the queue, and the rest are 503."""
        from repro.server import app as app_mod

        def slowly(fn, delay):
            def run(*args):
                time.sleep(delay)
                return fn(*args)

            return run

        harness = daemon_factory(workers=0, queue_limit=1)
        monkeypatch.setattr(app_mod, "execute", slowly(app_mod.execute, 0.8))
        statuses = []

        def one_request(scheduler):
            try:
                BangerClient(port=harness.daemon.port).schedule(
                    project_doc, scheduler=scheduler
                )
                statuses.append(200)
            except ServerError as err:
                statuses.append(err.status)

        threads = [
            threading.Thread(target=one_request, args=(name,))
            for name in ("mh", "etf", "dls", "hlfet", "mcp", "ish")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert statuses.count(200) <= 1 and statuses.count(503) >= 5, statuses

    def test_disconnect_cancels_computation(self, daemon_factory):
        harness = daemon_factory(workers=1, debug=True, request_timeout=60)
        body = json.dumps({"seconds": 30}).encode()
        raw = socket.create_connection(("127.0.0.1", harness.daemon.port))
        raw.sendall(
            b"POST /debug/sleep HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        time.sleep(0.5)  # request admitted, worker sleeping
        raw.close()  # client gives up

        # the daemon notices, kills the worker, and is free again fast —
        # nowhere near the 30s the abandoned sleep would have taken
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            health = harness.client.healthz()
            if health["workers"]["restarts"] >= 1:
                break
            time.sleep(0.1)
        assert health["workers"]["restarts"] >= 1
        assert health["workers"]["alive"] == 1
        assert harness.client.metrics()["server"]["disconnects"] >= 1
        t0 = time.monotonic()
        assert harness.client.post("/debug/sleep", {"seconds": 0})["type"] == (
            "banger-sleep"
        )
        assert time.monotonic() - t0 < 5


class TestGracefulShutdown:
    def test_sigterm_drains_in_flight_requests(self, tmp_path):
        """The real thing: `banger serve` under SIGTERM finishes what it
        accepted, refuses nothing it already answered, and exits 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--debug", "--no-access-log"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            port = ready["port"]
            wait_until_ready(port=port, timeout=20)

            results: list[dict] = []

            def slow_request():
                results.append(
                    BangerClient(port=port, timeout=30).post(
                        "/debug/sleep", {"seconds": 1.0}
                    )
                )

            threads = [threading.Thread(target=slow_request) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.4)  # both requests are in flight inside the daemon

            proc.send_signal(signal.SIGTERM)

            for t in threads:
                t.join(timeout=30)
            # every accepted request got its full response
            assert len(results) == 2
            assert all(r["type"] == "banger-sleep" for r in results)

            assert proc.wait(timeout=30) == 0

            # and the listener is really gone
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_new_connections_refused_while_draining(self, daemon_factory):
        harness = daemon_factory(workers=0)
        assert harness.client.healthz()["status"] == "serving"
        future = harness.submit(harness.daemon.shutdown())
        future.result(timeout=30)
        with pytest.raises(Exception):
            http.client.HTTPConnection(
                "127.0.0.1", harness.daemon.port, timeout=2
            ).request("GET", "/healthz")
