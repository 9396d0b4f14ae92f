"""The ref tier: naming rules, linear history, persistence, GC roots."""

import pytest

from repro.errors import StoreError
from repro.store import RefStore, check_name


def test_append_numbers_versions_from_one(tmp_path):
    refs = RefStore(tmp_path)
    assert refs.append("alice", "proj", "m1") == 1
    assert refs.append("alice", "proj", "m2") == 2
    assert [e["v"] for e in refs.versions("alice", "proj")] == [1, 2]
    assert refs.head("alice", "proj")["manifest"] == "m2"


def test_resolve_pinned_and_head_versions(tmp_path):
    refs = RefStore(tmp_path)
    refs.append("t", "p", "m1", "first")
    refs.append("t", "p", "m2", "second")
    assert refs.resolve("t", "p")["manifest"] == "m2"
    assert refs.resolve("t", "p", 1)["message"] == "first"
    with pytest.raises(StoreError, match="has no version 9"):
        refs.resolve("t", "p", 9)


def test_unknown_project_raises_store_error(tmp_path):
    refs = RefStore(tmp_path)
    with pytest.raises(StoreError, match="no project t/missing"):
        refs.versions("t", "missing")


@pytest.mark.parametrize("bad", ["", "../evil", "a/b", ".hidden", "sp ace", "trailing\n"])
def test_bad_names_are_rejected(tmp_path, bad):
    refs = RefStore(tmp_path)
    with pytest.raises(StoreError, match="bad (tenant|project) name"):
        refs.append(bad, "ok", "m")
    with pytest.raises(StoreError, match="bad (tenant|project) name"):
        refs.append("ok", bad, "m")


def test_check_name_passes_reasonable_names_through():
    for name in ("alice", "family_lu", "v1.2-rc", "A9"):
        assert check_name("tenant", name) == name


def test_refs_persist_across_reopen(tmp_path):
    refs = RefStore(tmp_path)
    refs.append("alice", "proj", "m1", "hello")
    refs.append("bob", "other", "m2")
    reopened = RefStore(tmp_path)
    assert reopened.tenants() == ["alice", "bob"]
    assert reopened.head("alice", "proj")["message"] == "hello"
    assert reopened.census() == (2, 2, 2)  # tenants, projects, versions


def test_manifests_collects_all_roots_and_heads_only(tmp_path):
    refs = RefStore(tmp_path)
    refs.append("t", "p", "m1")
    refs.append("t", "p", "m2")
    refs.append("t", "q", "m3")
    assert refs.manifests() == {"m1", "m2", "m3"}
    assert refs.manifests(heads_only=True) == {"m2", "m3"}


def test_delete_removes_project_and_empty_tenant(tmp_path):
    """Deleting a ref is deleting its file: the project is gone at once, and
    a tenant left with no ref file is no tenant."""
    refs = RefStore(tmp_path)
    refs.append("t", "p", "m1")
    (tmp_path / "refs" / "t" / "p.json").unlink()
    assert refs.tenants() == []
    assert RefStore(tmp_path).tenants() == []
    with pytest.raises(StoreError, match="no project t/p"):
        refs.versions("t", "p")
