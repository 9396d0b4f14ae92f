"""One store directory, several processes: the directory is the only store.

A :class:`BlobStore` keeps no blob and a :class:`RefStore` no ref in memory,
so neither can answer for bytes another process deleted or that never
reached the disk, and every query reads ``refs/`` as it is now.  Each test
opens a second repository on the same ``tmp_path`` where a second process
would.
"""

import shutil

import pytest

from repro.cli import main
from repro.errors import StoreError, StoreNotFound, StoreWriteError
from repro.graph.serialize import fingerprint
from repro.server.store_api import store_request
from repro.store import BlobStore, ProjectRepository, RefStore
from repro.store.corpus import example_project
from repro.store.evict import dir_files


@pytest.fixture(scope="module")
def doc() -> dict:
    return example_project("lu_decomposition").to_dict()


@pytest.fixture
def unwritable(tmp_path):
    """A store root whose ``objects`` is a plain file: no blob can land."""
    (tmp_path / "objects").write_text("not a directory", encoding="utf-8")
    return tmp_path


def test_a_disk_store_keeps_no_blob_in_memory(tmp_path, doc):
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", doc)
    assert repo.get("alice", "p") == doc
    shutil.rmtree(tmp_path / "objects")
    with pytest.raises(StoreError, match="no blob"):
        repo.get("alice", "p")


def test_put_rewrites_blobs_another_process_collected(tmp_path, doc):
    a = ProjectRepository(tmp_path)
    a.put("alice", "p", doc)
    (tmp_path / "refs" / "alice" / "p.json").unlink()  # another process
    assert ProjectRepository(tmp_path).gc()["deleted"] > 0
    assert not dir_files(tmp_path / "objects")

    hits = a.blobs.stats.dedup_hits
    a.put("alice", "q", doc)
    assert a.blobs.stats.dedup_hits == hits, "dedup against blobs that are gone"
    got = ProjectRepository(tmp_path).get("alice", "q")
    assert fingerprint(got) == fingerprint(doc)


def test_a_failed_blob_write_raises_instead_of_returning_a_hash(unwritable):
    store = BlobStore(unwritable)
    with pytest.raises(StoreWriteError, match="cannot write blob"):
        store.put({"x": 1})
    assert not store.has(fingerprint({"x": 1}))
    assert issubclass(StoreWriteError, StoreError)


def test_a_failed_blob_write_persists_no_ref(unwritable, doc):
    repo = ProjectRepository(unwritable)
    with pytest.raises(StoreWriteError):
        repo.put("alice", "p", doc)
    assert not repo.refs.exists("alice", "p")
    assert not RefStore(unwritable).exists("alice", "p")

    status, body = store_request(
        repo, "POST", "/projects/alice/p", {"project": doc}
    )
    assert status == 500 and body["kind"] == "internal"
    assert "cannot write blob" in body["message"]


def test_projects_put_on_an_unwritable_store_exits_one(
    unwritable, doc, tmp_path, capsys
):
    path = tmp_path / "p.json"
    example_project("lu_decomposition").save(str(path))
    argv = ["projects", "--store", str(unwritable), "put", "alice/p", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: cannot write blob") and "\n" not in err


def test_a_project_one_process_stored_is_seen_by_another_at_once(tmp_path, doc):
    daemon = ProjectRepository(tmp_path)  # opened before the put
    ProjectRepository(tmp_path).put("alice", "p", doc)  # `banger projects put`
    assert daemon.refs.tenants() == ["alice"]
    assert daemon.get("alice", "p") == doc
    assert [e["v"] for e in daemon.log("alice", "p")] == [1]


def test_two_processes_taking_turns_lose_no_version(tmp_path, doc):
    """Each append numbers its version from the file, not from what the
    appending instance read before: A's v2 stays under B's v3."""
    a, b = ProjectRepository(tmp_path), ProjectRepository(tmp_path)
    a.put("alice", "p", doc, message="v1 by a")
    edited = {**doc, "name": "edited"}
    assert a.put("alice", "p", edited, message="v2 by a")["version"] == 2
    assert b.put("alice", "p", doc, message="v3 by b")["version"] == 3
    fork = b.fork("alice", "p", "alice", "q")
    assert a.put("alice", "q", edited)["version"] == fork["version"] + 1 == 2

    fresh = ProjectRepository(tmp_path)
    assert [e["message"] for e in fresh.log("alice", "p")] == [
        "v1 by a", "v2 by a", "v3 by b"
    ]
    assert fresh.get("alice", "p", 2) == a.get("alice", "p", 2) == edited
    assert a.refs.head("alice", "p")["v"] == 3


def test_gc_reads_the_refs_another_process_wrote(tmp_path, doc):
    daemon = ProjectRepository(tmp_path)
    ProjectRepository(tmp_path).put("alice", "p", doc)  # `banger projects put`
    result = daemon.gc()
    assert result["deleted"] == 0 and result["live"] > 0
    assert ProjectRepository(tmp_path).get("alice", "p") == doc
    assert daemon.get("alice", "p") == doc  # and the daemon now knows the ref


def test_gc_keeps_a_ref_only_this_process_holds(tmp_path, doc):
    """No process holds a ref of its own: one whose file is deleted is gone
    for every instance, the one that wrote it included, and ``gc`` sweeps
    its blobs."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", doc)
    (tmp_path / "refs" / "alice" / "p.json").unlink()
    for instance in (repo, ProjectRepository(tmp_path)):
        assert not instance.refs.exists("alice", "p")
        with pytest.raises(StoreNotFound, match="no project alice/p"):
            instance.get("alice", "p")
    assert repo.gc()["deleted"] > 0
    assert not dir_files(tmp_path / "objects")


def test_gc_keeps_a_version_whose_ref_write_failed(tmp_path, doc, monkeypatch):
    """v1's file is on disk, v2's write failed: v2 is refused, never
    acknowledged, and v1 stays the head every instance sees."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", doc)
    edited = {**doc, "name": "edited"}
    monkeypatch.setattr("repro.store.refs.atomic_write_text", lambda *a: False)
    with pytest.raises(StoreWriteError, match="cannot write ref alice/p"):
        repo.put("alice", "p", edited)
    status, body = store_request(
        repo, "POST", "/projects/alice/p", {"project": edited}
    )
    assert status == 500 and body["kind"] == "internal"
    assert "cannot write ref" in body["message"]
    for instance in (repo, ProjectRepository(tmp_path)):
        assert [e["v"] for e in instance.log("alice", "p")] == [1]
        assert instance.get("alice", "p") == doc
    assert repo.gc()["deleted"] > 0  # the refused version's blobs
    assert repo.get("alice", "p") == doc

    monkeypatch.undo()  # the next write lands and is numbered from the file
    assert repo.put("alice", "p", edited)["version"] == 2
    assert RefStore(tmp_path).head("alice", "p")["v"] == 2
