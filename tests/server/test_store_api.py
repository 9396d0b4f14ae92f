"""The daemon's ``/projects`` surface over real sockets.

End to end against a live daemon: corpus auto-seeding, put/get byte
identity, log/fork/diff, the store section of ``/metrics``, and — the
multi-tenant contract — per-tenant quota rejections arriving as HTTP 403
with a ``Retry-After`` header, exactly like 503 backpressure.
"""

import tempfile

import pytest

from repro.client import ServerError
from repro.errors import StoreCorruption, StoreError, StoreNotFound
from repro.graph.serialize import fingerprint
from repro.server import store_api
from repro.store import ProjectRepository, TenantQuota
from repro.store.corpus import corpus_names


@pytest.fixture
def store_daemon(daemon_factory):
    """Inline-worker daemon with a seeded scratch store and tight quotas."""
    return daemon_factory(
        workers=0,
        tenant_quota=TenantQuota(max_projects=2, max_versions_per_project=3),
    )


def test_corpus_is_seeded_on_startup(store_daemon):
    doc = store_daemon.client.projects()
    assert doc["tenants"] == ["corpus"]
    listing = store_daemon.client.projects("corpus")
    names = [p["name"] for p in listing["projects"]]
    assert names == sorted(corpus_names())


def test_get_put_round_trip_over_http(store_daemon, project_doc):
    client = store_daemon.client
    record = client.project_get("corpus", "family_bitonic")
    assert record["type"] == "banger-project-record"
    assert fingerprint(record["document"]) == record["project"]

    info = client.project_put("alice", "mine", project_doc, message="first")
    assert info["version"] == 1
    assert info["project"] == fingerprint(project_doc)
    back = client.project_get("alice", "mine")
    assert back["document"] == project_doc
    assert back["message"] == "first"


def test_log_fork_diff_over_http(store_daemon, project_doc):
    client = store_daemon.client
    client.project_put("alice", "p", project_doc, message="v1")
    client.project_put("alice", "p", dict(project_doc, name="x"), message="v2")
    log = client.project_log("alice", "p")
    assert [e["v"] for e in log["versions"]] == [1, 2]

    fork = client.project_fork("alice", "p", "alice", "q", version=1)
    assert fork["forked_from"]["v"] == 1
    delta = client.project_diff("alice", "p", version_a=1,
                                to_tenant="alice", to_name="q")
    assert delta["identical"] is True
    delta = client.project_diff("alice", "p", version_a=1, version_b=2)
    assert delta["identical"] is False


def test_version_pinned_get_and_404s(store_daemon, project_doc):
    client = store_daemon.client
    client.project_put("alice", "p", project_doc)
    assert client.project_get("alice", "p", version=1)["version"] == 1
    with pytest.raises(ServerError) as err:
        client.project_get("alice", "p", version=9)
    assert err.value.status == 404
    with pytest.raises(ServerError) as err:
        client.project_get("nobody", "nothing")
    assert err.value.status == 404
    assert err.value.doc["kind"] == "not-found"


@pytest.mark.parametrize(
    "path, status, kind, raised, message",
    [
        ("/projects/ghost", 404, "not-found", StoreNotFound,
         "no tenant 'ghost' in the store"),
        ("/projects/alice/ghost", 404, "not-found", StoreNotFound,
         "no project alice/ghost in the store"),
        ("/projects/alice/p/v/9", 404, "not-found", StoreNotFound,
         "alice/p has no version 9 (history has 1)"),
        ("/projects/alice/p/frob", 404, "not-found", StoreNotFound,
         "no such projects route: /projects/alice/p/frob"),
        ("/projects/alice/tampered", 500, "internal", StoreCorruption,
         "store corruption: alice/tampered reassembled to "),
        ("/projects/alice/p/v/x", 400, "bad-request", StoreError,
         "bad version 'x': expected an integer"),
    ],
)
def test_store_errors_are_classified_by_type(
    tmp_path, project_doc, path, status, kind, raised, message
):
    """The status follows the exception's class; the wording is free."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", project_doc)
    # a manifest that pins a project hash its parts do not reassemble to
    manifest = dict(repo.manifest("alice", "p"), project="0" * 64)
    repo.refs.append("alice", "tampered", repo.blobs.put(manifest))

    got, doc = store_api.store_request(repo, "GET", path, {})
    assert (got, doc["kind"]) == (status, kind)
    assert doc["message"].startswith(message)
    with pytest.raises(StoreError) as err:
        store_api._get(repo, path.split("/")[2:])
    assert type(err.value) is raised and str(err.value) == doc["message"]


def test_quota_rejection_is_403_with_retry_after(store_daemon, project_doc):
    client = store_daemon.client
    client.project_put("alice", "a", project_doc)
    client.project_put("alice", "b", project_doc)
    with pytest.raises(ServerError) as err:
        client.project_put("alice", "c", project_doc)
    assert err.value.status == 403
    assert err.value.doc["kind"] == "quota-exceeded"
    assert err.value.doc["tenant"] == "alice"
    assert err.value.retry_after is not None, "403 must carry Retry-After"
    # version-depth quota trips the same way
    for _ in range(2):
        client.project_put("alice", "a", project_doc)
    with pytest.raises(ServerError) as err:
        client.project_put("alice", "a", project_doc)
    assert err.value.status == 403
    assert "version quota" in err.value.doc["message"]


def test_corpus_tenant_ignores_quotas_over_http(store_daemon, project_doc):
    client = store_daemon.client
    # corpus already has 22 projects >> max_projects=2, and another put works
    info = client.project_put("corpus", "extra", project_doc)
    assert info["version"] == 1


def test_metrics_expose_store_stats(store_daemon, project_doc):
    client = store_daemon.client
    client.project_put("alice", "p", project_doc)
    metrics = client.metrics()
    store = metrics["store"]
    assert store["tenants"] == 2
    assert store["blob"]["dedup_ratio"] >= 1.0
    assert store["quota"]["max_projects"] == 2


def test_store_gc_endpoint(store_daemon):
    result = store_daemon.client.store_gc()
    assert result["type"] == "banger-store-gc"
    assert result["deleted"] == 0, "a freshly seeded corpus has no garbage"
    assert result["live"] > 0


def test_malformed_put_is_400(store_daemon):
    with pytest.raises(ServerError) as err:
        store_daemon.client.post("/projects/alice/p", {"not": "a project"})
    assert err.value.status == 400
    assert err.value.doc["kind"] == "bad-request"


def test_bad_method_is_405(store_daemon):
    with pytest.raises(ServerError) as err:
        store_daemon.client.request("PUT", "/projects/alice/p", {})
    assert err.value.status == 405


def test_daemon_without_seed_corpus_starts_empty(daemon_factory, project_doc):
    harness = daemon_factory(workers=0, seed_corpus=False)
    assert harness.client.projects()["tenants"] == []
    harness.client.project_put("alice", "p", project_doc)
    assert harness.client.projects()["tenants"] == ["alice"]


def test_a_daemon_without_store_dir_removes_its_scratch_store(
    daemon_factory, project_doc, tmp_path, monkeypatch
):
    """Without ``store_dir`` the store is a private directory that lives as
    long as the daemon: made at start, gone after ``shutdown()``."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    harness = daemon_factory(workers=0, seed_corpus=False)
    harness.client.project_put("alice", "p", project_doc)
    (scratch,) = tmp_path.glob("banger-store-*")
    assert list(scratch.glob("refs/alice/p.json"))
    harness.stop()
    assert not list(tmp_path.glob("banger-store-*"))


def test_persistent_store_dir_survives_daemon_restart(
    daemon_factory, project_doc, tmp_path
):
    first = daemon_factory(
        workers=0, store_dir=str(tmp_path), seed_corpus=False
    )
    info = first.client.project_put("alice", "p", project_doc)
    first.stop()
    second = daemon_factory(
        workers=0, store_dir=str(tmp_path), seed_corpus=False
    )
    record = second.client.project_get("alice", "p")
    assert record["manifest"] == info["manifest"]
    assert record["document"] == project_doc
