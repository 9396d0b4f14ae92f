"""The repository: decomposition, byte-identical round trips, fork/diff/log,
tenant quotas, and mark-sweep GC — the tentpole guarantees, unit level."""

import pytest

from repro.apps import lu3_design
from repro.env.project import BangerProject
from repro.errors import QuotaExceeded, StoreError
from repro.graph.serialize import fingerprint
from repro.machine import MachineParams
from repro.store import ProjectRepository, TenantQuota


def lu_doc(name: str = "lu") -> dict:
    project = BangerProject(name).set_design(lu3_design())
    project.set_machine(
        "hypercube", 4, MachineParams(msg_startup=0.2, transmission_rate=20.0)
    )
    return project.to_dict()


def test_put_get_round_trip_is_byte_identical(tmp_path):
    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    info = repo.put("alice", "lu", doc)
    got = repo.get("alice", "lu")
    assert got == doc
    assert fingerprint(got) == info["project"] == fingerprint(doc)


def test_put_accepts_project_objects(tmp_path):
    repo = ProjectRepository(tmp_path)
    project = BangerProject("p").set_design(lu3_design())
    info = repo.put("alice", "p", project)
    assert repo.get("alice", "p") == project.to_dict()
    assert info["version"] == 1


def test_design_decomposes_into_shared_blobs(tmp_path):
    """Two projects sharing a design store its blobs once."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "a", lu_doc("a"))
    blobs_after_first = len(repo.blobs)
    repo.put("bob", "b", lu_doc("a"))  # same content, different ref
    assert len(repo.blobs) == blobs_after_first, "nothing new to store"
    assert repo.blobs.stats.dedup_ratio > 1.0


def test_pits_programs_are_their_own_blobs(tmp_path):
    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    repo.put("t", "p", doc)
    docs = [repo.blobs.get(h) for h in repo.blobs.digests()]
    pits = [
        d for d in docs
        if isinstance(d, dict) and d.get("type") == "pits-program"
    ]
    assert pits, "task programs must be stored as pits-program blobs"
    assert all("source" in p for p in pits)


def test_versions_accumulate_and_log_reports_hashes(tmp_path):
    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    repo.put("t", "p", doc, message="first")
    doc2 = dict(doc, name="renamed")
    repo.put("t", "p", doc2, message="rename")
    log = repo.log("t", "p")
    assert [e["v"] for e in log] == [1, 2]
    assert log[0]["message"] == "first"
    assert log[0]["project"] == fingerprint(doc)
    assert log[1]["project"] == fingerprint(doc2)
    assert repo.get("t", "p", 1) == doc
    assert repo.get("t", "p") == doc2


def test_fork_is_zero_copy_and_diffs_identical(tmp_path):
    repo = ProjectRepository(tmp_path)
    repo.put("t", "p", lu_doc())
    blobs_before = len(repo.blobs)
    info = repo.fork("t", "p", "u", "q")
    assert len(repo.blobs) == blobs_before, "fork copies no blob"
    assert info["forked_from"] == {"tenant": "t", "name": "p", "v": 1}
    delta = repo.diff("t", "p", to_tenant="u", to_name="q")
    assert delta["identical"] is True
    assert repo.get("u", "q") == repo.get("t", "p")


def test_diff_reports_component_and_node_level_deltas(tmp_path):
    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    repo.put("t", "p", doc, message="v1")
    changed = {
        **doc,
        "design": {
            **doc["design"],
            "nodes": [
                {**n, "size": 999.0} if n["name"] == "A" else n
                for n in doc["design"]["nodes"]
            ],
        },
    }
    repo.put("t", "p", changed, message="v2")
    delta = repo.diff("t", "p", 1, 2)
    assert delta["identical"] is False
    assert delta["components"]["design"]["equal"] is False
    assert delta["components"]["machine"]["equal"] is True
    assert delta["nodes"]["changed"] == ["A"]
    assert delta["nodes"]["added"] == [] and delta["nodes"]["removed"] == []


def test_scenario_blob_rides_along(tmp_path):
    repo = ProjectRepository(tmp_path)
    scenario = {"type": "fault-scenario", "name": "s", "events": []}
    repo.put("t", "p", lu_doc(), scenario=scenario)
    assert repo.scenario("t", "p") == scenario
    repo.put("t", "p", lu_doc())
    assert repo.scenario("t", "p") is None, "scenarios do not inherit"
    assert repo.scenario("t", "p", 1) == scenario


def test_rejects_documents_without_a_design(tmp_path):
    repo = ProjectRepository(tmp_path)
    with pytest.raises(StoreError, match="design"):
        repo.put("t", "p", {"type": "banger-project", "name": "x"})


# --------------------------------------------------------------------- #
# quotas
# --------------------------------------------------------------------- #
def test_project_count_quota(tmp_path):
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_projects=2))
    repo.put("t", "a", lu_doc())
    repo.put("t", "b", lu_doc())
    repo.put("t", "a", lu_doc())  # new version of an existing name is fine
    for name in ("c", "d", "e"):
        with pytest.raises(QuotaExceeded) as err:
            repo.put("t", name, lu_doc())
        assert err.value.tenant == "t"
        assert err.value.quota == 2
    # a rejected put leaves no partial state behind
    assert sorted(repo.refs.projects("t")) == ["a", "b"]
    assert [e["v"] for e in repo.log("t", "a")] == [1, 2]


def test_version_depth_quota(tmp_path):
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_versions_per_project=2))
    repo.put("t", "p", lu_doc())
    repo.put("t", "p", lu_doc())
    with pytest.raises(QuotaExceeded, match="version quota"):
        repo.put("t", "p", lu_doc())


def test_byte_quota_counts_logical_bytes(tmp_path):
    doc = lu_doc()
    from repro.graph.serialize import canonical_json

    size = len(canonical_json(doc))
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_bytes=size + 10))
    repo.put("t", "p", doc)
    assert repo.usage("t") == size
    with pytest.raises(QuotaExceeded, match="byte quota"):
        repo.put("t", "p2", doc)


@pytest.mark.parametrize(
    "field", ["max_projects", "max_versions_per_project", "max_bytes"]
)
def test_a_negative_limit_is_refused_when_the_quota_is_made(field):
    """A negative limit used to refuse every put as over a quota of -1."""
    with pytest.raises(StoreError, match=f"{field} must be >= 0, got -1"):
        TenantQuota(**{field: -1})


def test_corpus_tenant_is_quota_exempt(tmp_path):
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_projects=1, max_bytes=10))
    repo.put("corpus", "a", lu_doc())
    repo.put("corpus", "b", lu_doc())  # would violate both quotas


def test_fork_respects_target_quota(tmp_path):
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_projects=1))
    repo.put("t", "p", lu_doc())
    repo.fork("t", "p", "u", "one")
    with pytest.raises(QuotaExceeded):
        repo.fork("t", "p", "u", "two")


# --------------------------------------------------------------------- #
# GC
# --------------------------------------------------------------------- #
def test_gc_keeps_reachable_blobs_and_drops_garbage(tmp_path):
    repo = ProjectRepository(tmp_path)
    repo.put("t", "p", lu_doc())
    orphan = repo.blobs.put({"orphan": True})
    result = repo.gc()
    assert result["deleted"] == 1
    assert not repo.blobs.has(orphan)
    assert repo.get("t", "p")  # still loads, fingerprint-verified


def test_gc_size_cap_trims_history_but_never_heads(tmp_path):
    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    for i in range(4):
        repo.put("t", "p", dict(doc, name=f"rev{i}"))
    full = repo.blobs.total_bytes()
    result = repo.gc(max_bytes=full // 2)
    assert result["stored_bytes"] < full
    # the head version always survives a cap...
    head = repo.get("t", "p")
    assert head["name"] == "rev3"
    # ...and at least one old version now reads as missing blobs
    missing = 0
    for v in (1, 2, 3):
        try:
            repo.get("t", "p", v)
        except StoreError:
            missing += 1
    assert missing > 0


def test_stats_shape(tmp_path):
    repo = ProjectRepository(tmp_path, quota=TenantQuota(max_projects=5))
    repo.put("t", "p", lu_doc())
    stats = repo.stats()
    assert stats["tenants"] == 1
    assert stats["projects"] == 1
    assert stats["versions"] == 1
    assert stats["blobs"] == len(repo.blobs)
    assert stats["blob"]["puts"] > 0
    assert stats["quota"] == {
        "max_projects": 5, "max_versions_per_project": 0, "max_bytes": 0,
    }


def test_stats_and_put_do_their_work_once(tmp_path, monkeypatch):
    """``stats()`` lists ``objects/`` once for both the blob count and the
    stored bytes; ``put`` renders the project once for quota size and hash."""
    from repro.graph.serialize import fingerprint
    from repro.store import blobs, repository

    repo = ProjectRepository(tmp_path)
    doc = lu_doc()
    # put hashes the text it rendered for the quota: it must not need this
    monkeypatch.setattr(repository, "fingerprint", None)
    assert repo.put("t", "p", doc)["project"] == fingerprint(doc)

    scans = []
    listing = blobs.dir_files
    monkeypatch.setattr(
        blobs, "dir_files", lambda *a, **k: scans.append(a) or listing(*a, **k)
    )
    stats = repo.stats()
    assert len(scans) == 1
    assert stats["blobs"] == len(repo.blobs)
    assert stats["blob"]["stored_bytes"] == repo.blobs.total_bytes()


def test_persistent_repository_reopens(tmp_path):
    doc = lu_doc()
    info = ProjectRepository(tmp_path).put("t", "p", doc)
    reopened = ProjectRepository(tmp_path)
    assert reopened.get("t", "p") == doc
    assert reopened.refs.head("t", "p")["manifest"] == info["manifest"]
