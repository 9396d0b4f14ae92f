"""Run early: on an idle daemon a request's computation starts before its key.

The key only decides who waits for the run.  An early run is admitted like
any computation; a new key makes it that key's in-flight entry; a cache hit,
a coalesced wait or a 400 answers at once and leaves the run to finish with
nobody waiting, its work still counted.  Only an idle daemon runs anything
early, and every worker an early run used comes back.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pathlib
import socket
import threading
import time

import pytest

from repro.client import BangerClient, ServerError
from repro.server import app as app_mod
from repro.server import ops
from repro.server import workers as workers_mod

EXAMPLES = sorted((pathlib.Path(__file__).parents[2] / "examples").glob("*.json"))


def _load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _payloads(doc: dict) -> list[tuple[str, dict]]:
    """Every project op over one example, ``base_schedule`` with and without."""
    ops.shared_service().clear()
    base = ops.execute("schedule", {"project": doc})["result"]["schedule"]
    return [
        ("lint", {"project": doc}),
        ("lint", {"project": doc, "concurrency": True}),
        ("schedule", {"project": doc, "scheduler": "etf"}),
        ("schedule", {"project": doc, "base_schedule": base}),
        ("sweep", {"project": doc, "schedulers": ["mh", "dls"], "proc_counts": [1, 2, 4]}),
        ("simulate", {"project": doc, "contention": True}),
        ("speedup", {"project": doc, "proc_counts": [1, 2, 4]}),
        ("codegen", {"project": doc, "target": "threads"}),
    ]


def _raw_post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _abandoned_post(port: int, path: str, payload: dict) -> socket.socket:
    """A request whose client will hang up: the open socket."""
    body = json.dumps(payload).encode()
    raw = socket.create_connection(("127.0.0.1", port))
    raw.sendall(
        f"POST {path} HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    return raw


def _server(harness) -> dict:
    return harness.client.metrics()["server"]


def _until(check, what: str, seconds: float = 15.0) -> None:
    deadline = time.monotonic() + seconds
    while not check():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _slowed_keys(monkeypatch, seconds_for) -> None:
    """Delay the daemon's key computation by ``seconds_for(payload)``."""
    real = app_mod.coalesce_key

    def slowly(op, payload):
        time.sleep(seconds_for(payload))
        return real(op, payload)

    monkeypatch.setattr(app_mod, "coalesce_key", slowly)


def _slowed_runs(monkeypatch, seconds: float) -> None:
    """Delay every worker's op on the ``figure1`` project by ``seconds``.

    Worker processes fork from this one, patch included: call it before the
    daemon starts.
    """
    real = workers_mod.execute

    def slowly(op, payload):
        if payload["project"].get("name") == "figure1":
            time.sleep(seconds)
        return real(op, payload)

    monkeypatch.setattr(workers_mod, "execute", slowly)


def _recorded_replies(harness, monkeypatch) -> list[dict]:
    """Every worker reply's ``counters``, recorded by wrapping ``pool.run``."""
    pool = harness.daemon.pool
    replies: list[dict] = []
    run = pool.run

    async def recording(op, payload, timeout=None):
        reply = await run(op, payload, timeout)
        if reply[0] == "ok":
            replies.append(reply[1]["counters"])
        return reply

    monkeypatch.setattr(pool, "run", recording)
    return replies


def _assert_recovered(harness, project_doc, name: str) -> None:
    """Every worker is free and alive, and a cold request is computed."""
    pool = harness.daemon.pool

    def back() -> bool:
        alive = harness.client.healthz()["workers"]["alive"]
        return alive == pool.size and pool._free.qsize() == pool.size

    _until(back, "every worker free and alive")
    assert _server(harness)["in_flight"] == 0
    computed = _server(harness)["computed"]
    reply = harness.client.schedule({**project_doc, "name": name}, scheduler="etf")
    assert reply["project"] == name and reply["makespan"] > 0
    assert _server(harness)["computed"] == computed + 1


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_every_run_s_work_is_counted_needed_or_not(daemon_factory, monkeypatch, path):
    """Each body runs early twice, once for a new key and once, respaced,
    for a cache hit: the hit answers the cached bytes, and ``server.work``
    is the field-wise sum of every worker reply, unneeded runs included."""
    assert len(EXAMPLES) == 6
    harness = daemon_factory(workers=1)
    replies = _recorded_replies(harness, monkeypatch)
    port = harness.daemon.port
    payloads = _payloads(_load(path))
    for op, payload in payloads:
        plain = _raw_post(port, "/" + op, json.dumps(payload).encode())
        respaced = _raw_post(port, "/" + op, json.dumps(payload, indent=1).encode())
        assert plain[0] == 200 and respaced == plain, op
        _until(lambda: _server(harness)["in_flight"] == 0, "the unneeded run")
    server = _server(harness)
    n = len(payloads)
    assert (server["computed"], server["cache_hits"]) == (n, n)
    assert (server["ran_early"], server["ran_early_unneeded"]) == (2 * n, n)
    assert len(replies) == 2 * n
    assert set(server["work"]) == set(replies[0])
    for name, value in server["work"].items():
        assert value == pytest.approx(sum(r[name] for r in replies), abs=1e-3), name


# --------------------------------------------------------------------- #
# whatever the key decides, every worker comes back
# --------------------------------------------------------------------- #
class TestEveryWorkerComesBack:
    def test_after_a_cache_hit_from_a_reordered_body(self, daemon_factory, project_doc):
        harness = daemon_factory(workers=1)
        port = harness.daemon.port
        first = _raw_post(port, "/schedule", json.dumps(
            {"project": project_doc, "scheduler": "mh"}).encode())
        reordered = _raw_post(port, "/schedule", json.dumps(
            {"scheduler": "mh", "project": project_doc}).encode())
        assert first[0] == 200 and reordered == first
        server = _server(harness)
        assert server["cache_hits"] == 1 and server["computed"] == 1
        assert (server["ran_early"], server["ran_early_unneeded"]) == (2, 1)
        _assert_recovered(harness, project_doc, "after-cache-hit")

    def test_after_a_coalesced_wait_on_a_leader_that_needs_the_worker(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """One worker: the body keyed second leads and waits for the only
        worker, which runs the first body early; the first body's key finds
        the leader in flight and waits on it, and both get the same bytes."""
        _slowed_runs(monkeypatch, 0.8)
        harness = daemon_factory(workers=1)
        _slowed_keys(monkeypatch, lambda p: 0.6 if next(iter(p)) == "project" else 0.0)
        bodies = [
            json.dumps({"project": project_doc, "scheduler": "mh"}).encode(),
            json.dumps({"scheduler": "mh", "project": project_doc}).encode(),
        ]
        replies: list[tuple[int, bytes]] = []

        def post(body: bytes) -> None:
            replies.append(_raw_post(harness.daemon.port, "/schedule", body))

        threads = [threading.Thread(target=post, args=(body,)) for body in bodies]
        threads[0].start()
        _until(lambda: _server(harness)["ran_early"] == 1, "the first early run")
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert len(replies) == 2 and replies[0] == replies[1] and replies[0][0] == 200
        server = _server(harness)
        assert server["computed"] == 1 and server["coalesce_hits"] == 1
        assert (server["ran_early"], server["ran_early_unneeded"]) == (1, 1)
        _assert_recovered(harness, project_doc, "after-coalesced")

    def test_after_a_400_from_the_key(self, daemon_factory, project_doc):
        harness = daemon_factory(workers=1)
        with pytest.raises(ServerError) as err:
            harness.client.schedule(project_doc, scheduler="no-such-scheduler")
        assert err.value.status == 400 and err.value.doc["kind"] == "bad-request"
        server = _server(harness)
        assert (server["ran_early"], server["ran_early_unneeded"]) == (1, 1)
        _assert_recovered(harness, project_doc, "after-400")

    def test_after_a_disconnect_during_the_key_one_worker_restarts(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """The key is new, so the run becomes the request's computation;
        with its only waiter gone it is cancelled and its worker replaced."""
        _slowed_runs(monkeypatch, 1.5)
        harness = daemon_factory(workers=2)
        _slowed_keys(monkeypatch, lambda p: 0.5)
        raw = _abandoned_post(harness.daemon.port, "/schedule", {"project": project_doc})
        _until(lambda: _server(harness)["ran_early"] == 1, "the early run")
        raw.close()
        _until(lambda: _server(harness)["disconnects"] == 1, "the disconnect")
        _until(lambda: _server(harness)["in_flight"] == 0, "the cancelled run")
        assert harness.client.healthz()["workers"]["restarts"] == 1
        assert _server(harness)["ran_early_unneeded"] == 0
        _assert_recovered(harness, project_doc, "after-disconnect")
        assert harness.client.healthz()["workers"]["restarts"] == 1

    def test_after_a_disconnect_before_the_run_reaches_a_worker(
        self, daemon_factory, project_doc, monkeypatch
    ):
        harness = daemon_factory(workers=1)
        daemon = harness.daemon
        real = daemon._run_op

        async def stalled(op, payload):
            await asyncio.sleep(60)
            return await real(op, payload)

        monkeypatch.setattr(daemon, "_run_op", stalled)
        raw = _abandoned_post(daemon.port, "/schedule", {"project": project_doc})
        _until(lambda: _server(harness)["ran_early"] == 1, "the early run")
        raw.close()
        _until(lambda: _server(harness)["disconnects"] == 1, "the disconnect")
        _until(lambda: _server(harness)["in_flight"] == 0, "the cancelled run")
        monkeypatch.delattr(daemon, "_run_op")
        assert harness.client.healthz()["workers"]["restarts"] == 0, "a run was sent"
        _assert_recovered(harness, project_doc, "after-cancel")

    def test_a_shutdown_drains_an_unneeded_run(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """A closed pool takes no worker back, so a shutdown that did not wait
        for a run nobody waits on would sit out the pool's 10 s drain."""
        _slowed_runs(monkeypatch, 1.0)
        harness = daemon_factory(workers=1)
        payload = {"project": project_doc, "scheduler": "mh"}
        plain = _raw_post(harness.daemon.port, "/schedule", json.dumps(payload).encode())
        respaced = _raw_post(
            harness.daemon.port, "/schedule", json.dumps(payload, indent=1).encode()
        )
        assert respaced == plain and _server(harness)["in_flight"] == 1
        t0 = time.monotonic()
        harness.submit(harness.daemon.shutdown()).result(timeout=30)
        assert time.monotonic() - t0 < 8.0
        assert harness.daemon.pool.stats()["restarts"] == 0

    @pytest.mark.parametrize("scheduler, status", [("mh", 500), ("nope", 400)])
    def test_a_worker_killed_mid_run_fails_only_its_own_request(
        self, daemon_factory, project_doc, monkeypatch, tmp_path, scheduler, status
    ):
        """Killed under a request whose key is new: that request is 500
        ``worker-crash``.  Killed under one the key refuses: the request is
        400, and the unneeded run's worker is replaced all the same."""
        killed = tmp_path / "killed"
        real = workers_mod.execute

        def dies_once(op, payload):
            if not killed.exists():
                killed.touch()
                os._exit(13)
            return real(op, payload)

        # worker processes fork from this one, patch included
        monkeypatch.setattr(workers_mod, "execute", dies_once)
        harness = daemon_factory(workers=1)
        with pytest.raises(ServerError) as err:
            harness.client.schedule(project_doc, scheduler=scheduler)
        _until(killed.exists, "the kill")  # a refused key answers first
        assert err.value.status == status
        if status == 500:
            assert err.value.doc["kind"] == "worker-crash"
            assert _server(harness)["worker_crashes"] == 1
        _until(lambda: harness.client.healthz()["workers"]["crashes"] == 1, "the crash")
        _assert_recovered(harness, project_doc, f"after-kill-{status}")


# --------------------------------------------------------------------- #
# the gate: an idle daemon, admitted like any computation
# --------------------------------------------------------------------- #
class TestTheIdleGate:
    def test_a_daemon_with_an_op_in_flight_runs_nothing_early(
        self, daemon_factory, project_doc
    ):
        harness = daemon_factory(workers=2, debug=True)
        holder = threading.Thread(
            target=lambda: BangerClient(port=harness.daemon.port).post(
                "/debug/sleep", {"seconds": 1.0})
        )
        holder.start()
        _until(lambda: _server(harness)["in_flight"] == 1, "the sleep")
        assert harness.client.schedule(project_doc)["makespan"] > 0
        holder.join(timeout=30)
        assert _server(harness)["ran_early"] == 0
        harness.client.schedule(project_doc, scheduler="etf")
        assert _server(harness)["ran_early"] == 1

    def test_a_burst_of_reordered_identical_bodies_runs_once(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """Eight spellings of one request at once: the first runs early and
        holds the daemon busy, so no other does; one scheduler run answers
        all eight."""
        _slowed_runs(monkeypatch, 1.0)
        harness = daemon_factory(workers=1)
        payload = {"project": project_doc, "scheduler": "mh"}
        bodies = [json.dumps(payload, indent=indent).encode()
                  for indent in (None, 0, 1, 2, 3, 4, 5, 6)]
        assert len(set(bodies)) == 8
        barrier = threading.Barrier(len(bodies))
        replies: list[tuple[int, bytes]] = []

        def post(body: bytes) -> None:
            barrier.wait()
            replies.append(_raw_post(harness.daemon.port, "/schedule", body))

        threads = [threading.Thread(target=post, args=(body,)) for body in bodies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(replies) == 8 and len(set(replies)) == 1 and replies[0][0] == 200
        _until(lambda: _server(harness)["in_flight"] == 0, "every run")
        server = _server(harness)
        assert server["ran_early"] == 1
        assert server["work"]["sched_runs"] == 1

    def test_an_early_run_is_not_refused_at_the_queue_limit(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """The early run already holds the one admission place when its key
        comes back new: the request is answered, not bounced as 503."""
        _slowed_runs(monkeypatch, 0.5)
        harness = daemon_factory(workers=1, queue_limit=1)
        assert harness.client.schedule(project_doc)["makespan"] > 0
        server = _server(harness)
        assert (server["ran_early"], server["ran_early_unneeded"]) == (1, 0)
        assert server["rejected"] == 0 and server["computed"] == 1


def test_process_workers_reply_the_inline_bytes(daemon_factory):
    """Every project op over the six examples: a ``--workers 2`` daemon that
    runs each body early answers the bytes ``--workers 0`` does."""
    process = daemon_factory(workers=2)
    inline = daemon_factory(workers=0)
    bodies = [
        ("/" + op, json.dumps(payload).encode())
        for path in EXAMPLES
        for op, payload in _payloads(_load(path))
    ]
    for route, body in bodies:
        early = _raw_post(process.daemon.port, route, body)
        assert early[0] == 200, early
        assert early == _raw_post(inline.daemon.port, route, body), route
    server = _server(process)
    assert server["ran_early"] == server["computed"] == len(bodies)
    assert server["ran_early_unneeded"] == 0
