"""Prepare and run: the worker derives a project while the daemon keys it.

Three contracts.  ``execute(op, p, project=prepare(op, p))`` is
``execute(op, p)`` — the same reply and the same work counters — and
``prepare`` itself counts no work.  A slot the daemon pinned with an early
prepare always comes back, whatever the key decides.  And only an idle
daemon prepares early.
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
from repro.graph.serialize import canonical_json
from repro.lru import LEDGER
from repro.machine.compiled import clear_compiled
from repro.server import app as app_mod
from repro.server import ops
from repro.server import workers as workers_mod
from repro.server.workers import WorkerPool

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


def _cold() -> None:
    ops.shared_service().clear()
    clear_compiled()


#: Counters that are wall time, not work: equal only in being there.
TIMES = ("kernel_build_ms",)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_a_prepared_project_gives_the_same_answer_and_the_same_work(path):
    assert len(EXAMPLES) == 6
    for op, payload in _payloads(_load(path)):
        _cold()
        plain = ops.execute(op, payload)
        _cold()
        base = LEDGER.snapshot()
        stats = vars(ops.shared_service().stats())
        project = ops.prepare(op, payload)
        assert not any(LEDGER.since(base).values()), (op, "prepare counted work")
        assert vars(ops.shared_service().stats()) == stats, op
        prepared = ops.execute(op, payload, project=project)

        assert canonical_json(prepared["result"]) == canonical_json(plain["result"]), op
        assert set(prepared["counters"]) == set(plain["counters"])
        for name, value in plain["counters"].items():
            if name in TIMES:
                assert (prepared["counters"][name] > 0) == (value > 0), (op, name)
            else:
                assert prepared["counters"][name] == value, (op, name)


def test_prepare_flattens_only_for_ops_that_schedule():
    doc = _load(EXAMPLES[0])
    assert ops.prepare("conform", {}) is None
    assert ops.prepare("lint", {"project": doc})._flat is None
    for op in ops.FLAT_OPS:
        assert ops.prepare(op, {"project": doc})._flat is not None, op
    with pytest.raises(ops.OpError):
        ops.prepare("schedule", {})


# --------------------------------------------------------------------- #
# the pool: a slot pinned to one payload object
# --------------------------------------------------------------------- #
class TestPinnedSlots:
    def test_a_pinned_run_answers_like_a_fresh_one(self, project_doc):
        async def scenario():
            pool = WorkerPool(1)
            try:
                payload = {"project": project_doc, "scheduler": "etf"}
                assert pool.prepare("schedule", payload)
                assert not pool.prepare("schedule", dict(payload)), "no slot is free"
                pinned = await pool.run("schedule", payload, 30)
                assert not pool.drop(payload), "the run took the slot"
                fresh = await pool.run("schedule", dict(payload), 30)
                assert pinned[0] == fresh[0] == "ok"
                assert pinned[1]["result"] == fresh[1]["result"]
                # a dropped slot serves the next job, from scratch
                assert pool.prepare("lint", payload)
                assert pool.drop(payload)
                again = await pool.run("schedule", dict(payload), 30)
                assert again[1]["result"] == fresh[1]["result"]
                assert pool.stats()["restarts"] == 0
            finally:
                await pool.close()

        asyncio.run(scenario())

    def test_a_run_cancelled_before_it_starts_leaves_the_slot_to_drop(self, project_doc):
        async def scenario():
            pool = WorkerPool(1)
            try:
                payload = {"project": project_doc}
                assert pool.prepare("schedule", payload)
                task = asyncio.ensure_future(pool.run("schedule", payload, 30))
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert pool.drop(payload)
                assert (await pool.run("sleep", {"seconds": 0}, 30))[0] == "ok"
                assert pool.stats()["restarts"] == 0
            finally:
                await pool.close()

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# the daemon: every pinned slot comes back
# --------------------------------------------------------------------- #
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


def _assert_recovered(harness, project_doc, name: str) -> None:
    """Every slot is back and alive, and a cold request is computed."""
    pool = harness.daemon.pool

    def back() -> bool:
        alive = harness.client.healthz()["workers"]["alive"]
        return alive == pool.size and pool._free.qsize() == pool.size

    _until(back, "every worker slot back and alive")
    assert not pool._pinned
    computed = _server(harness)["computed"]
    reply = harness.client.schedule({**project_doc, "name": name}, scheduler="etf")
    assert reply["project"] == name and reply["makespan"] > 0
    assert _server(harness)["computed"] == computed + 1


class TestEverySlotComesBack:
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
        assert (server["prepared_early"], server["prepares_dropped"]) == (2, 1)
        _assert_recovered(harness, project_doc, "after-cache-hit")

    def test_after_a_coalesced_wait_on_a_leader_that_needs_the_slot(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """One worker: the body keyed second leads and waits for the only
        slot, which the first body pinned; the first body's key finds the
        leader in flight and must hand the slot over before waiting on it."""
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
        _until(lambda: _server(harness)["prepared_early"] == 1, "the first prepare")
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert len(replies) == 2 and replies[0] == replies[1] and replies[0][0] == 200
        server = _server(harness)
        assert server["computed"] == 1 and server["coalesce_hits"] == 1
        assert (server["prepared_early"], server["prepares_dropped"]) == (1, 1)
        _assert_recovered(harness, project_doc, "after-coalesced")

    def test_after_a_400_from_the_key(self, daemon_factory, project_doc):
        harness = daemon_factory(workers=1)
        with pytest.raises(ServerError) as err:
            harness.client.schedule(project_doc, scheduler="no-such-scheduler")
        assert err.value.status == 400 and err.value.doc["kind"] == "bad-request"
        server = _server(harness)
        assert (server["prepared_early"], server["prepares_dropped"]) == (1, 1)
        _assert_recovered(harness, project_doc, "after-400")

    def test_after_a_disconnect_during_the_key(
        self, daemon_factory, project_doc, monkeypatch
    ):
        harness = daemon_factory(workers=1)
        _slowed_keys(monkeypatch, lambda p: 0.5)
        raw = _abandoned_post(harness.daemon.port, "/schedule", {"project": project_doc})
        _until(lambda: _server(harness)["prepared_early"] == 1, "the prepare")
        raw.close()
        _until(lambda: _server(harness)["disconnects"] == 1, "the disconnect")
        _assert_recovered(harness, project_doc, "after-disconnect")

    def test_after_a_leader_cancelled_before_its_run_is_sent(
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
        _until(lambda: _server(harness)["in_flight"] == 1, "the leader's compute")
        raw.close()
        _until(lambda: _server(harness)["prepares_dropped"] == 1, "the drop")
        monkeypatch.delattr(daemon, "_run_op")
        assert harness.client.healthz()["workers"]["restarts"] == 0, "a run was sent"
        _assert_recovered(harness, project_doc, "after-cancel")

    @pytest.mark.parametrize("scheduler, status", [("mh", 500), ("nope", 400)])
    def test_a_worker_killed_mid_prepare_fails_only_its_own_request(
        self, daemon_factory, project_doc, monkeypatch, tmp_path, scheduler, status
    ):
        """Killed under a request that runs: that request is 500 ``crashed``.
        Killed under one the key refuses: the drop restarts the worker."""
        killed = tmp_path / "killed"
        real = workers_mod.prepare

        def dies_once(op, payload):
            if not killed.exists():
                killed.touch()
                os._exit(13)
            return real(op, payload)

        # worker processes fork from this one, patch included
        monkeypatch.setattr(workers_mod, "prepare", dies_once)
        harness = daemon_factory(workers=1)
        with pytest.raises(ServerError) as err:
            harness.client.schedule(project_doc, scheduler=scheduler)
        assert killed.exists()
        assert err.value.status == status
        if status == 500:
            assert err.value.doc["kind"] == "worker-crash"
            assert _server(harness)["worker_crashes"] == 1
        _until(lambda: harness.client.healthz()["workers"]["crashes"] == 1, "the crash")
        _assert_recovered(harness, project_doc, f"after-kill-{status}")


class TestTheIdleGate:
    def test_a_daemon_with_an_op_in_flight_prepares_nothing_early(
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
        assert _server(harness)["prepared_early"] == 0
        harness.client.schedule(project_doc, scheduler="etf")
        assert _server(harness)["prepared_early"] == 1


def test_process_workers_reply_the_inline_bytes(daemon_factory):
    """Every project op over the six examples: a ``--workers 2`` daemon that
    prepares each body early answers the bytes ``--workers 0`` does."""
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
    assert server["prepared_early"] == server["computed"] == len(bodies)
    assert server["prepares_dropped"] == 0
