"""The worker that runs a request names its key.

A new body goes to a worker, which parses it, builds its project once,
keys it, and asks the daemon whether to run.  The daemon answers ``stop``
when the key's reply is cached (the request is a ``cache`` hit) or being
computed (it coalesces on that computation), and ``run`` otherwise.  Every
job's work is counted, stopped or run; every worker a job used comes back,
whatever happens between its key and the daemon's answer.
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

from repro.client import ServerError
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
    """Delay every op on the ``figure1`` project by ``seconds``, after its
    key.  Worker processes fork from this one, patch included: call it
    before the daemon starts."""
    real = workers_mod.execute

    def slowly(op, payload):
        if payload["project"].get("name") == "figure1":
            time.sleep(seconds)
        return real(op, payload)

    monkeypatch.setattr(workers_mod, "execute", slowly)


def _held_answers(monkeypatch, before_answer) -> None:
    """Call ``before_answer(key)`` on the pool thread after a worker sends
    its key and before the daemon answers it."""
    real = workers_mod.on_loop

    def holding(loop, fn):
        ask = real(loop, fn)

        def held(key: str) -> str:
            before_answer(key)
            return ask(key)

        return held

    monkeypatch.setattr(workers_mod, "on_loop", holding)


def _recorded_replies(harness, monkeypatch) -> list[tuple]:
    """Every job outcome the pool returns, recorded by wrapping ``pool.run``."""
    pool = harness.daemon.pool
    replies: list[tuple] = []
    run = pool.run

    async def recording(*args, **kwargs):
        reply = await run(*args, **kwargs)
        replies.append(reply)
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
    assert not harness.daemon._bodies and not harness.daemon._inflight
    computed = _server(harness)["computed"]
    reply = harness.client.schedule({**project_doc, "name": name}, scheduler="etf")
    assert reply["project"] == name and reply["makespan"] > 0
    assert _server(harness)["computed"] == computed + 1


# --------------------------------------------------------------------- #
# one build per new body, and every job's work counted
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_every_job_s_work_is_counted_run_or_stopped(daemon_factory, monkeypatch, path):
    """Each body twice, once for a new key and once, respaced, for a key
    whose reply is cached: the second answers the cached bytes, and
    ``server.work`` is the field-wise sum of every worker outcome, stopped
    jobs included."""
    assert len(EXAMPLES) == 6
    harness = daemon_factory(workers=1)
    replies = _recorded_replies(harness, monkeypatch)
    port = harness.daemon.port
    payloads = _payloads(_load(path))
    for op, payload in payloads:
        plain = _raw_post(port, "/" + op, json.dumps(payload).encode())
        respaced = _raw_post(port, "/" + op, json.dumps(payload, indent=1).encode())
        assert plain[0] == 200 and respaced == plain, op
    server = _server(harness)
    n = len(payloads)
    assert (server["computed"], server["cache_hits"]) == (n, n)
    assert [reply[0] for reply in replies] == ["ok", "stop"] * n
    counters = [reply[1]["counters"] for reply in replies]
    assert set(server["work"]) == set(counters[0])
    for name, value in server["work"].items():
        assert value == pytest.approx(sum(c[name] for c in counters), abs=1e-3), name
    assert _builds(harness) == 2 * n


@pytest.mark.parametrize("workers", [0, 1])
def test_a_new_body_is_built_once_and_a_repeat_never(
    daemon_factory, project_doc, workers
):
    """A new body adds one build to ``server.work``; its exact repeat adds
    none; a reordered body whose key is cached adds one build and no
    scheduler run."""
    harness = daemon_factory(workers=workers)
    port = harness.daemon.port
    payload = {"project": project_doc, "scheduler": "mh"}
    body = json.dumps(payload).encode()
    reordered = json.dumps({"scheduler": "mh", "project": project_doc}).encode()

    first = _raw_post(port, "/schedule", body)
    assert first[0] == 200 and _builds(harness) == 1
    assert _raw_post(port, "/schedule", body) == first
    assert _builds(harness) == 1
    runs = _server(harness)["work"]["sched_runs"]
    assert _raw_post(port, "/schedule", reordered) == first
    server = _server(harness)
    assert _builds(harness) == 2 and server["work"]["sched_runs"] == runs == 1
    assert (server["computed"], server["cache_hits"]) == (1, 2)


# --------------------------------------------------------------------- #
# the answers: cache, coalesce, run, refuse
# --------------------------------------------------------------------- #
def test_a_key_in_flight_coalesces_on_its_leader(daemon_factory, project_doc, monkeypatch):
    """Two spellings of one request on two workers: the second worker finds
    the first's key in flight and stops, and its request waits for the
    first's bytes."""
    _slowed_runs(monkeypatch, 0.8)
    harness = daemon_factory(workers=2)
    bodies = [
        json.dumps({"project": project_doc, "scheduler": "mh"}).encode(),
        json.dumps({"scheduler": "mh", "project": project_doc}).encode(),
    ]
    replies: list[tuple[int, bytes]] = []

    def post(body: bytes) -> None:
        replies.append(_raw_post(harness.daemon.port, "/schedule", body))

    threads = [threading.Thread(target=post, args=(body,)) for body in bodies]
    threads[0].start()
    _until(lambda: harness.daemon._inflight, "the first key")
    threads[1].start()
    for t in threads:
        t.join(timeout=30)
    assert len(replies) == 2 and replies[0] == replies[1] and replies[0][0] == 200
    server = _server(harness)
    assert server["computed"] == 1 and server["coalesce_hits"] == 1
    assert server["work"]["sched_runs"] == 1
    _assert_recovered(harness, project_doc, "after-coalesced")


def test_a_burst_of_reordered_identical_bodies_runs_once(
    daemon_factory, project_doc, monkeypatch
):
    """Eight spellings of one request at once: each is keyed by a worker,
    one runs, and one scheduler run answers all eight."""
    _slowed_runs(monkeypatch, 1.0)
    harness = daemon_factory(workers=2)
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
    server = _server(harness)
    assert server["computed"] == 1 and server["work"]["sched_runs"] == 1
    assert _builds(harness) == 8


def test_a_known_key_whose_reply_was_evicted_runs_unasked(
    daemon_factory, project_doc, monkeypatch
):
    """The body-hash memo still knows the key of bytes whose reply the
    response cache let go: their job runs without keying again."""
    harness = daemon_factory(workers=1, cache_entries=1)
    pool = harness.daemon.pool
    run, asked = pool.run, []

    async def recording(op, body, timeout=None, ask=None):
        asked.append(ask is not None)
        return await run(op, body, timeout, ask)

    monkeypatch.setattr(pool, "run", recording)
    port = harness.daemon.port
    mh = json.dumps({"project": project_doc, "scheduler": "mh"}).encode()
    etf = json.dumps({"project": project_doc, "scheduler": "etf"}).encode()
    first = _raw_post(port, "/schedule", mh)
    assert _raw_post(port, "/schedule", etf)[0] == 200  # evicts mh's reply
    assert _raw_post(port, "/schedule", mh) == first
    assert asked == [True, True, False]
    assert _server(harness)["computed"] == 3


def test_a_400_from_the_key_runs_nothing(daemon_factory, project_doc):
    """An unknown scheduler is refused while the worker keys the request:
    400 without an op's ``detail``, and the worker is not restarted."""
    harness = daemon_factory(workers=1)
    with pytest.raises(ServerError) as err:
        harness.client.schedule(project_doc, scheduler="no-such-scheduler")
    assert err.value.status == 400 and err.value.doc["kind"] == "bad-request"
    assert "detail" not in err.value.doc
    assert _server(harness)["work"].get("sched_runs", 0) == 0
    _assert_recovered(harness, project_doc, "after-400")
    assert harness.client.healthz()["workers"]["restarts"] == 0


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

    def test_a_disconnect_while_the_answer_is_pending_kills_the_job(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """The client leaves between the worker's key and the daemon's
        answer: the job is cancelled, its worker replaced, and the same
        bytes are computed next time."""
        harness = daemon_factory(workers=1)
        pending, gone = threading.Event(), threading.Event()

        def hold(key: str) -> None:
            if not gone.is_set():
                pending.set()
                gone.wait(30)
                time.sleep(0.2)  # the daemon sees the hang-up first

        _held_answers(monkeypatch, hold)
        body = json.dumps({"project": project_doc, "scheduler": "etf"}).encode()
        raw = _abandoned_post(harness.daemon.port, "/schedule", body)
        assert pending.wait(30)
        raw.close()
        _until(lambda: _server(harness)["disconnects"] == 1, "the disconnect")
        gone.set()
        _until(lambda: _server(harness)["in_flight"] == 0, "the cancelled job")
        _until(lambda: harness.client.healthz()["workers"]["restarts"] == 1,
               "the restart")
        assert _server(harness)["computed"] == 0
        status, reply = _raw_post(harness.daemon.port, "/schedule", body)
        assert status == 200 and json.loads(reply)["makespan"] > 0
        _assert_recovered(harness, project_doc, "after-pending-disconnect")

    def test_a_worker_killed_before_its_answer_fails_only_its_request(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """The worker dies after sending its key and before the answer: its
        request and the follower coalesced on it are 500 ``worker-crash``,
        the slot restarts, and the next request is served."""
        harness = daemon_factory(workers=1)
        daemon = harness.daemon
        body = json.dumps({"project": project_doc, "scheduler": "etf"}).encode()
        pending, killed = threading.Event(), threading.Event()

        def kill_first(key: str) -> None:
            if killed.is_set():
                return
            pending.set()
            _until(lambda: sum(e.waiters for e in daemon._bodies.values()) == 2,
                   "the follower")
            proc = daemon.pool._slots[0]._proc
            proc.kill()
            proc.join(timeout=10)
            killed.set()

        _held_answers(monkeypatch, kill_first)
        replies: list[tuple[int, bytes]] = []

        def post() -> None:
            replies.append(_raw_post(daemon.port, "/schedule", body))

        threads = [threading.Thread(target=post) for _ in range(2)]
        threads[0].start()
        assert pending.wait(30)
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert killed.is_set() and len(replies) == 2 and replies[0] == replies[1]
        status, reply = replies[0]
        assert status == 500 and json.loads(reply)["kind"] == "worker-crash"
        server = _server(harness)
        assert (server["worker_crashes"], server["coalesce_hits"]) == (1, 1)
        assert harness.client.healthz()["workers"]["crashes"] == 1
        status, reply = _raw_post(daemon.port, "/schedule", body)
        assert status == 200 and json.loads(reply)["makespan"] > 0
        _assert_recovered(harness, project_doc, "after-kill-before-answer")

    def test_a_worker_killed_mid_run_fails_only_its_own_request(
        self, daemon_factory, project_doc, monkeypatch, tmp_path
    ):
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
            harness.client.schedule(project_doc, scheduler="mh")
        assert killed.exists()
        assert err.value.status == 500 and err.value.doc["kind"] == "worker-crash"
        assert _server(harness)["worker_crashes"] == 1
        _until(lambda: harness.client.healthz()["workers"]["crashes"] == 1, "the crash")
        _assert_recovered(harness, project_doc, "after-kill")

    def test_a_shutdown_drains_a_request_in_flight(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """A shutdown while a keyed request runs: the request is answered,
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
