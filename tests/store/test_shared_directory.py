"""One store directory, several processes: the directory is the only store.

A disk-backed :class:`BlobStore` keeps no blob in memory, so it cannot
answer for bytes another process deleted or that never reached the disk,
and ``gc`` reads ``refs/`` as it is now.  Each test opens a second
repository on the same ``tmp_path`` where a second process would.
"""

import pytest

from repro.cli import main
from repro.errors import StoreError, StoreWriteError
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
    assert repo.blobs._mem is None
    assert ProjectRepository().blobs._mem is not None  # memory mode: the dict


def test_put_rewrites_blobs_another_process_collected(tmp_path, doc):
    a = ProjectRepository(tmp_path)
    a.put("alice", "p", doc)
    b = ProjectRepository(tmp_path)
    b.refs.delete("alice", "p")
    assert b.gc()["deleted"] > 0
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


def test_gc_reads_the_refs_another_process_wrote(tmp_path, doc):
    daemon = ProjectRepository(tmp_path)
    ProjectRepository(tmp_path).put("alice", "p", doc)  # `banger projects put`
    result = daemon.gc()
    assert result["deleted"] == 0 and result["live"] > 0
    assert ProjectRepository(tmp_path).get("alice", "p") == doc
    assert daemon.get("alice", "p") == doc  # and the daemon now knows the ref


def test_gc_keeps_a_ref_only_this_process_holds(tmp_path, doc):
    """A ref whose file never landed stays live: disk wins, memory is kept."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", doc)
    (tmp_path / "refs" / "alice" / "p.json").unlink()
    assert repo.gc()["deleted"] == 0
    assert repo.get("alice", "p") == doc


def test_gc_keeps_a_version_whose_ref_write_failed(tmp_path, doc, monkeypatch):
    """v1's file is on disk, v2's write failed: memory's longer history wins."""
    repo = ProjectRepository(tmp_path)
    repo.put("alice", "p", doc)
    edited = {**doc, "name": "edited"}
    monkeypatch.setattr("repro.store.refs.atomic_write_text", lambda *a: False)
    assert repo.put("alice", "p", edited)["version"] == 2
    assert len(RefStore(tmp_path).versions("alice", "p")) == 1  # the file: v1
    assert repo.gc()["deleted"] == 0
    assert repo.get("alice", "p") == edited

    monkeypatch.undo()  # the next write lands, so the file is the truth again
    assert repo.put("alice", "p", doc)["version"] == 3
    ProjectRepository(tmp_path).put("alice", "p", edited)  # another process: v4
    repo.gc()
    assert repo.refs.head("alice", "p")["v"] == 4
