"""Coalescing: N identical concurrent requests cost exactly one run.

The daemon runs in inline mode (``workers=0``) so every scheduler
invocation happens in this process and is visible — exactly — through
:func:`kernel_counters` and the shared :class:`ScheduleService` stats.
A delay is injected around op execution to guarantee all N requests are
genuinely in flight together (otherwise a fast schedule can finish
before the burst lands and later requests become cache hits, which is
correct but not the behaviour under test).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.client import BangerClient
from repro.sched.core import kernel_counters
from repro.server import app as app_mod
from repro.server.ops import execute, shared_service
from repro.server.protocol import json_body

N_CLIENTS = 24


def _slow_execute(delay: float):
    def run(op, payload):
        time.sleep(delay)
        return execute(op, payload)

    return run


class TestCoalescing:
    def test_burst_of_identical_requests_runs_scheduler_once(
        self, daemon_factory, project_doc, monkeypatch
    ):
        harness = daemon_factory(workers=0, queue_limit=256)
        # Hold every computation long enough for the whole burst to pile up
        # behind the first request's in-flight future.
        monkeypatch.setattr(app_mod, "execute", _slow_execute(0.4))

        kernels_before = kernel_counters()
        service_before = shared_service().stats()

        def one_request(i: int) -> bytes:
            client = BangerClient(port=harness.daemon.port)
            doc = client.schedule(project_doc, scheduler="mh")
            raw = client.request("POST", "/schedule",
                                 {"project": project_doc, "scheduler": "mh"})
            assert raw == doc
            return repr(sorted(doc.items())).encode()

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            bodies = list(pool.map(one_request, range(N_CLIENTS)))

        # Byte-identical responses for every caller.
        assert len(set(bodies)) == 1

        kernels_after = kernel_counters()
        service_after = shared_service().stats()

        # Exactly ONE scheduler run happened for the whole burst.
        assert service_after.misses - service_before.misses == 1
        # And nobody even re-asked the service: followers shared the
        # leader's in-flight future, repeats hit the response-bytes cache.
        assert service_after.hits - service_before.hits == 0
        assert (
            kernels_after["kernel_builds"] - kernels_before["kernel_builds"] == 1
        )

        metrics = harness.client.metrics()["server"]
        assert metrics["work"]["sched_runs"] == 1
        assert metrics["by_disposition"]["computed"] == 1
        # Everyone else either coalesced onto the in-flight computation or
        # (their second call) hit the response cache.
        assert metrics["coalesce_hits"] >= N_CLIENTS - 1
        assert (
            metrics["coalesce_hits"] + metrics["cache_hits"]
            == 2 * N_CLIENTS - 1
        )

    def test_coalesce_hit_ratio_on_synchronized_burst(
        self, daemon_factory, project_doc, monkeypatch
    ):
        """The acceptance-criteria shape: >= 0.9 of a 50-way burst coalesces."""
        harness = daemon_factory(workers=0, queue_limit=256)
        monkeypatch.setattr(app_mod, "execute", _slow_execute(0.6))
        n = 50

        def one_request(i: int) -> None:
            BangerClient(port=harness.daemon.port).schedule(
                project_doc, scheduler="hlfet"
            )

        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(one_request, range(n)))

        metrics = harness.client.metrics()["server"]
        assert metrics["work"]["sched_runs"] == 1
        assert metrics["coalesce_hits"] / n >= 0.9

    def test_different_payloads_do_not_coalesce(
        self, daemon_factory, project_doc
    ):
        harness = daemon_factory(workers=0)
        client = harness.client
        a = client.schedule(project_doc, scheduler="mh")
        b = client.schedule(project_doc, scheduler="hlfet")
        assert a["scheduler"] == "mh" and b["scheduler"] == "hlfet"
        metrics = client.metrics()["server"]
        assert metrics["by_disposition"]["computed"] == 2
        assert metrics["coalesce_hits"] == 0

    def test_use_cache_is_one_more_unread_option(self, daemon_factory, project_doc):
        """The cache bypass is gone: the field changes the key (every payload
        field does) and nothing else — same bytes, no second scheduler run."""
        harness = daemon_factory(workers=0)
        client = harness.client
        plain = client.schedule(project_doc, scheduler="mh")
        bypass = client.schedule(project_doc, scheduler="mh", use_cache=False)
        assert json_body(bypass) == json_body(plain)
        metrics = client.metrics()["server"]
        assert metrics["by_disposition"]["computed"] == 2
        assert metrics["work"]["sched_runs"] == 1

    def test_reordered_json_maps_to_same_key(self, daemon_factory, project_doc):
        """Key is content-addressed, not byte-addressed: field order of the
        payload must not defeat the cache."""
        harness = daemon_factory(workers=0)
        client = harness.client
        client.post("/schedule", {"project": project_doc, "scheduler": "mh"})
        # http.client + json.dumps(sort_keys=True) normally canonicalizes;
        # force a different byte layout through a raw post instead.
        import http.client
        import json as json_mod

        body = json_mod.dumps(
            {"scheduler": "mh", "project": project_doc}, sort_keys=False
        ).encode()
        conn = http.client.HTTPConnection("127.0.0.1", harness.daemon.port)
        conn.request("POST", "/schedule", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        response.read()
        conn.close()
        metrics = client.metrics()["server"]
        assert metrics["by_disposition"]["computed"] == 1
        assert metrics["cache_hits"] >= 1
