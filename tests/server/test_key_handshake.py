"""A new body is one job, and every worker a job used comes back.

The daemon answers a body from its response cache, or coalesces it on the
computation of the same bytes in flight, or hands it to a worker, which
parses it, builds its project once and runs the op.  Whatever happens to
that job — a disconnect, a crash, a shutdown — only the requests waiting
on it are affected, and the worker is back for the next one.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import socket
import threading
import time

import pytest

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


def _abandoned_post(port: int, path: str, body: bytes) -> socket.socket:
    """A request whose client will hang up: the open socket."""
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


def _builds(harness) -> int:
    work = _server(harness)["work"]
    return work.get("graph_cold", 0) + work.get("graph_patched", 0)


def _slowed_runs(monkeypatch, seconds: float) -> None:
    """Delay every op on the ``figure1`` project by ``seconds``.  Worker
    processes fork from this one, patch included: call it before the
    daemon starts."""
    real = workers_mod.execute

    def slowly(op, payload):
        if payload["project"].get("name") == "figure1":
            time.sleep(seconds)
        return real(op, payload)

    monkeypatch.setattr(workers_mod, "execute", slowly)


def _assert_recovered(harness, project_doc, name: str) -> None:
    """Every worker is free and alive, and a cold request is computed."""
    pool = harness.daemon.pool

    def back() -> bool:
        alive = harness.client.healthz()["workers"]["alive"]
        return alive == pool.size and pool._free.qsize() == pool.size

    _until(back, "every worker free and alive")
    assert _server(harness)["in_flight"] == 0
    assert not harness.daemon._inflight
    computed = _server(harness)["computed"]
    reply = harness.client.schedule({**project_doc, "name": name}, scheduler="etf")
    assert reply["project"] == name and reply["makespan"] > 0
    assert _server(harness)["computed"] == computed + 1


# --------------------------------------------------------------------- #
# one build per new body
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [0, 1])
def test_a_new_body_is_built_once_and_a_repeat_never(
    daemon_factory, project_doc, workers
):
    """A new body adds one build to ``server.work``; its exact repeat adds
    none; a reordered body is new bytes, so it is computed again: one more
    build, and its schedule comes from the worker's schedule cache."""
    harness = daemon_factory(workers=workers)
    port = harness.daemon.port
    payload = {"project": project_doc, "scheduler": "mh"}
    body = json.dumps(payload).encode()
    reordered = json.dumps({"scheduler": "mh", "project": project_doc}).encode()

    first = _raw_post(port, "/schedule", body)
    assert first[0] == 200 and _builds(harness) == 1
    assert _raw_post(port, "/schedule", body) == first
    assert _builds(harness) == 1
    assert _raw_post(port, "/schedule", reordered) == first
    server = _server(harness)
    assert _builds(harness) == 2 and server["work"]["sched_runs"] == 1
    assert (server["computed"], server["cache_hits"]) == (2, 1)


# --------------------------------------------------------------------- #
# whatever happens to a job, every worker comes back
# --------------------------------------------------------------------- #
class TestEveryWorkerComesBack:
    def test_a_disconnect_with_no_other_waiter_kills_the_run(
        self, daemon_factory, project_doc, monkeypatch
    ):
        _slowed_runs(monkeypatch, 1.5)
        harness = daemon_factory(workers=2)
        raw = _abandoned_post(harness.daemon.port, "/schedule",
                              json.dumps({"project": project_doc}).encode())
        _until(lambda: harness.daemon._inflight, "the run")
        raw.close()
        _until(lambda: _server(harness)["disconnects"] == 1, "the disconnect")
        _until(lambda: _server(harness)["in_flight"] == 0, "the cancelled run")
        assert harness.client.healthz()["workers"]["restarts"] == 1
        _assert_recovered(harness, project_doc, "after-disconnect")
        assert harness.client.healthz()["workers"]["restarts"] == 1

    def test_a_worker_killed_mid_run_fails_only_its_own_request(
        self, daemon_factory, project_doc, monkeypatch, tmp_path
    ):
        """The worker dies mid-run: its request and the follower coalesced
        on it are 500 ``worker-crash``, the slot restarts, and the next
        request is served."""
        killed, release = tmp_path / "killed", tmp_path / "release"
        real = workers_mod.execute

        def dies_once(op, payload):
            if not killed.exists():
                killed.touch()
                _until(release.exists, "the follower")
                os._exit(13)
            return real(op, payload)

        # worker processes fork from this one, patch included
        monkeypatch.setattr(workers_mod, "execute", dies_once)
        harness = daemon_factory(workers=1)
        daemon = harness.daemon
        body = json.dumps({"project": project_doc, "scheduler": "mh"}).encode()
        replies: list[tuple[int, bytes]] = []

        def post() -> None:
            replies.append(_raw_post(daemon.port, "/schedule", body))

        threads = [threading.Thread(target=post) for _ in range(2)]
        threads[0].start()
        _until(killed.exists, "the run")
        threads[1].start()
        _until(lambda: sum(e.waiters for e in daemon._inflight.values()) == 2,
               "the follower")
        release.touch()
        for t in threads:
            t.join(timeout=30)
        assert len(replies) == 2 and replies[0] == replies[1]
        status, reply = replies[0]
        assert status == 500 and json.loads(reply)["kind"] == "worker-crash"
        server = _server(harness)
        assert (server["worker_crashes"], server["coalesce_hits"]) == (1, 1)
        _until(lambda: harness.client.healthz()["workers"]["crashes"] == 1, "the crash")
        _assert_recovered(harness, project_doc, "after-kill")

    def test_a_shutdown_drains_a_request_in_flight(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """A shutdown while a request runs: the request is answered,
        and the shutdown takes its worker back without a kill."""
        _slowed_runs(monkeypatch, 1.0)
        harness = daemon_factory(workers=1)
        body = json.dumps({"project": project_doc, "scheduler": "mh"}).encode()
        replies: list[tuple[int, bytes]] = []
        poster = threading.Thread(
            target=lambda: replies.append(_raw_post(harness.daemon.port, "/schedule", body))
        )
        poster.start()
        _until(lambda: harness.daemon._inflight, "the run")
        t0 = time.monotonic()
        harness.submit(harness.daemon.shutdown()).result(timeout=30)
        assert time.monotonic() - t0 < 8.0
        poster.join(timeout=30)
        assert len(replies) == 1 and replies[0][0] == 200
        assert harness.daemon.pool.stats()["restarts"] == 0


def test_process_workers_reply_the_inline_bytes(daemon_factory):
    """Every project op over the six examples: a ``--workers 2`` daemon
    answers the bytes ``--workers 0`` does."""
    process = daemon_factory(workers=2)
    inline = daemon_factory(workers=0)
    bodies = [
        ("/" + op, json.dumps(payload).encode())
        for path in EXAMPLES
        for op, payload in _payloads(_load(path))
    ]
    for route, body in bodies:
        computed = _raw_post(process.daemon.port, route, body)
        assert computed[0] == 200, computed
        assert computed == _raw_post(inline.daemon.port, route, body), route
    assert _server(process)["computed"] == len(bodies)
