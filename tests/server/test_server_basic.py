"""Daemon basics: endpoints, status codes, caching, metrics, access log."""

from __future__ import annotations

import copy
import json

import pytest

from repro import __version__
from repro.client import ServerError
from repro.server.protocol import Request, encode_response, json_body


class TestProtocol:
    def test_encode_response_roundtrip_fields(self):
        raw = encode_response(200, b'{"x":1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"x":1}'
        text = head.decode("ascii")
        assert text.startswith("HTTP/1.1 200 OK")
        assert "Content-Length: 7" in text
        assert "Connection: keep-alive" in text

    def test_json_body_is_canonical(self):
        assert json_body({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_request_keep_alive_default(self):
        assert Request("POST", "/x").keep_alive
        assert not Request("POST", "/x", {"connection": "close"}).keep_alive


class TestEndpoints:
    @pytest.fixture
    def harness(self, daemon_factory):
        return daemon_factory(workers=0)

    def test_healthz(self, harness):
        doc = harness.client.healthz()
        assert doc["type"] == "banger-healthz"
        assert doc["ok"] is True
        assert doc["status"] == "serving"
        assert doc["version"] == __version__
        assert doc["workers"]["mode"] == "inline"
        # one worker slot that happens to be a thread
        assert (doc["workers"]["size"], doc["workers"]["alive"]) == (1, 1)

    def test_schedule_roundtrip(self, harness, project_doc):
        doc = harness.client.schedule(project_doc, scheduler="mh")
        assert doc["type"] == "banger-schedule"
        assert doc["scheduler"] == "mh"
        assert doc["makespan"] > 0
        assert doc["report"]["makespan"] == doc["makespan"]
        assert doc["schedule"]["placements"]

    def test_lint_speedup_sweep_simulate(self, harness, project_doc):
        assert harness.client.lint(project_doc)["ok"] is True
        sp = harness.client.speedup(project_doc, proc_counts=[1, 2, 4])
        assert [p["n_procs"] for p in sp["points"]] == [1, 2, 4]
        sw = harness.client.sweep(project_doc, schedulers=["mh", "hlfet"])
        assert sorted(sw["schedulers"]) == ["hlfet", "mh"]
        sim = harness.client.simulate(project_doc)
        assert sim["simulated_makespan"] >= sim["static_makespan"] - 1e-9

    def test_conform_is_the_library_sweep(self, harness):
        from repro.conformance import run

        doc = harness.client.conform(seed=3, runs=6, oracles=["makespan"])
        assert (doc["type"], doc["ok"], doc["runs"]) == ("banger-conform", True, 6)
        assert doc["digest"] == run(seed=3, runs=6, oracles=["makespan"]).digest()

    def test_repeat_is_served_from_cache(self, harness, project_doc):
        first = harness.client.schedule(project_doc, scheduler="mh")
        second = harness.client.schedule(project_doc, scheduler="mh")
        assert first == second
        metrics = harness.client.metrics()
        server = metrics["server"]
        assert server["cache_hits"] >= 1
        assert server["by_disposition"]["cache"] >= 1

    def test_a_renamed_project_is_not_answered_from_the_cache(
        self, harness, project_doc
    ):
        # Replies quote the project name, so the name is part of the key:
        # same graph, same machine, new name must not get the old bytes.
        first = harness.client.schedule(project_doc, scheduler="mh")
        renamed = harness.client.schedule(
            {**project_doc, "name": "renamed"}, scheduler="mh"
        )
        assert first["project"] == "figure1"
        assert renamed["project"] == "renamed"
        assert renamed["schedule"] == first["schedule"]
        assert harness.client.metrics()["server"]["cache_hits"] == 0

    @pytest.mark.parametrize(
        "path, options, quoted",
        [
            ("/speedup", {"family": 7}, None),
            ("/sweep", {"family": 7}, None),
            ("/schedule", {"scheduler": "no-such-scheduler"}, None),
            ("/conform", {"budget": "soon", "runs": 1}, None),
            ("/speedup", {"proc_counts": "128"}, None),
            ("/speedup", {"proc_counts": {"2": 1, "4": 1}}, None),
            ("/speedup", {"proc_counts": [2.7, True]}, None),
            ("/sweep", {"proc_counts": "128"}, None),
            ("/sweep", {"proc_counts": [2, True]}, None),
            ("/sweep", {"proc_counts": [0]}, None),
            # Malformed documents: the loaders' own typed errors, the same
            # ones the CLI turns into exit 2 (tests/env/test_cli.py).
            ("/schedule", {"project": [1, 2]}, "'project' object"),
            ("/schedule", {"project": {"type": "banger-project"}},
             "malformed project document: KeyError('design')"),
            ("/schedule", {"machine.n_procs": "four"},
             "malformed machine document: TypeError"),
            ("/simulate", {"scenario": [1, 2]}, None),
            ("/simulate",
             {"scenario": {"type": "fault-scenario",
                           "events": [{"kind": "proc_fail", "proc": 0}]}},
             "malformed fault-scenario document: KeyError('time')"),
            ("/schedule", {"base_schedule": [1, 2]}, None),
            ("/schedule", {"base_schedule": {"type": "schedule"}},
             "malformed schedule document: KeyError('graph')"),
        ],
    )
    def test_hostile_option_types_are_400_not_500(
        self, harness, project_doc, path, options, quoted
    ):
        payload = dict(options)
        if path != "/conform":
            payload.setdefault("project", copy.deepcopy(project_doc))
        if "machine.n_procs" in payload:
            payload["project"]["machine"]["topology"]["n_procs"] = payload.pop(
                "machine.n_procs"
            )
        with pytest.raises(ServerError) as err:
            harness.client.post(path, payload)
        assert err.value.status == 400
        assert err.value.doc["kind"] == "bad-request"
        if quoted is None:  # the message quotes the offending value
            (bad,) = [v for k, v in options.items() if k != "runs"]
            quoted = repr(bad)
        assert quoted in err.value.doc["message"]

    def test_unknown_endpoint_is_404(self, harness):
        with pytest.raises(ServerError) as err:
            harness.client.post("/frobnicate", {})
        assert err.value.status == 404
        assert "/schedule" in err.value.doc["endpoints"]

    def test_get_on_compute_endpoint_is_405(self, harness):
        with pytest.raises(ServerError) as err:
            harness.client.get("/schedule")
        assert err.value.status == 405

    def test_malformed_project_is_400(self, harness):
        with pytest.raises(ServerError) as err:
            harness.client.post("/schedule", {"project": "not a dict"})
        assert err.value.status == 400
        assert err.value.doc["kind"] == "bad-request"

    def test_debug_routes_hidden_without_debug_flag(self, harness):
        with pytest.raises(ServerError) as err:
            harness.client.post("/debug/boom", {})
        assert err.value.status == 404

    def test_metrics_shape(self, harness, project_doc):
        harness.client.schedule(project_doc)
        doc = harness.client.metrics()
        assert doc["type"] == "banger-metrics"
        server = doc["server"]
        for key in ("requests_total", "by_endpoint", "by_status",
                    "by_disposition", "coalesce_hits", "cache_hits",
                    "in_flight", "queue_depth", "latency_ms", "work"):
            assert key in server, key
        assert server["by_endpoint"]["/schedule"] >= 1
        latency = server["latency_ms"]["/schedule"]
        assert latency["count"] >= 1 and latency["p95"] >= latency["p50"] >= 0
        assert server["work"]["sched_runs"] >= 1
        # the work picture is server.work alone, in either mode
        assert "service" not in doc

    def test_access_log_records(self, harness, project_doc):
        harness.records.clear()
        harness.client.schedule(project_doc)
        [record] = [r for r in harness.records if r["path"] == "/schedule"]
        assert record["method"] == "POST"
        assert record["status"] == 200
        assert record["disposition"] in ("computed", "cache")
        assert record["ms"] >= 0
        json.dumps(record)  # every record must be JSON-serializable


class TestProcessWorkers:
    def test_schedule_via_worker_processes(self, daemon_factory, project_doc):
        harness = daemon_factory(workers=2)
        doc = harness.client.schedule(project_doc, scheduler="mh")
        assert doc["makespan"] > 0
        health = harness.client.healthz()
        assert health["workers"]["mode"] == "process"
        assert health["workers"]["alive"] == 2
        # work counters flowed back from the worker process
        assert harness.client.metrics()["server"]["work"]["sched_runs"] >= 1
