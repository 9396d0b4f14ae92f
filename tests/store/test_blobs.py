"""The blob tier: content addressing, dedup accounting, disk durability.

Every guarantee the repository layer leans on is pinned here directly:
identical content is stored once (and *counted* as stored once), digests
are the canonical-JSON fingerprints from :mod:`repro.graph.serialize`, a
disk-backed store survives a restart, and corrupt on-disk objects are
detected and evicted instead of served.
"""

import json

import pytest

from repro.errors import StoreError
from repro.graph.serialize import canonical_json, fingerprint
from repro.store import BlobStore


def test_put_returns_the_content_fingerprint(tmp_path):
    store = BlobStore(tmp_path)
    doc = {"b": [1, 2], "a": "x"}
    assert store.put(doc) == fingerprint(doc)


def test_get_round_trips_the_document(tmp_path):
    store = BlobStore(tmp_path)
    doc = {"nested": {"k": [1.5, "two", None]}, "n": 3}
    assert store.get(store.put(doc)) == doc


def test_identical_content_is_stored_once(tmp_path):
    store = BlobStore(tmp_path)
    h1 = store.put({"a": 1, "b": 2})
    h2 = store.put({"b": 2, "a": 1})  # key order is canonicalized away
    assert h1 == h2
    assert len(store) == 1
    assert store.stats.puts == 2
    assert store.stats.dedup_hits == 1


def test_dedup_ratio_counts_logical_over_stored_bytes(tmp_path):
    store = BlobStore(tmp_path)
    doc = {"payload": "x" * 100}
    for _ in range(4):
        store.put(doc)
    assert store.stats.logical_bytes == 4 * store.stats.stored_bytes
    assert store.stats.dedup_ratio == pytest.approx(4.0)


def test_missing_blob_raises_store_error(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(StoreError, match="no blob"):
        store.get("0" * 64)


def test_disk_store_survives_a_restart(tmp_path):
    doc = {"design": {"nodes": list(range(10))}}
    digest = BlobStore(tmp_path).put(doc)
    reopened = BlobStore(tmp_path)
    assert reopened.has(digest)
    assert reopened.get(digest) == doc
    assert digest in list(reopened.digests())


def test_corrupt_on_disk_object_is_evicted_not_served(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put({"v": 1})
    path = tmp_path / "objects" / digest[:2] / f"{digest}.json"
    path.write_text(canonical_json({"v": "tampered"}), encoding="utf-8")
    fresh = BlobStore(tmp_path)
    with pytest.raises(StoreError, match="no blob"):
        fresh.get(digest)
    assert not path.exists(), "the corrupt object must be deleted"


def test_sweep_deletes_unreferenced_blobs_only(tmp_path):
    store = BlobStore(tmp_path)
    live = store.put({"keep": True})
    dead = [store.put({"drop": i}) for i in range(3)]
    deleted = store.sweep({live})
    assert sorted(deleted) == sorted(dead)
    assert store.has(live)
    assert not any(store.has(h) for h in dead)
    assert store.stats.evictions == 3


def test_enforce_cap_trims_oldest_first_and_spares_keep(tmp_path):
    import os

    store = BlobStore(tmp_path)
    digests = [store.put({"i": i, "pad": "x" * 50}) for i in range(5)]
    paths = {
        h: tmp_path / "objects" / h[:2] / f"{h}.json" for h in digests
    }
    for age, h in enumerate(digests):
        os.utime(paths[h], (1000 + age, 1000 + age))
    one_size = paths[digests[0]].stat().st_size
    deleted = store.enforce_cap(2 * one_size + 1, keep={digests[0]})
    # the oldest non-kept files go first; the kept digest survives even
    # though it is the oldest of all
    assert paths[digests[0]].exists()
    assert digests[1] in deleted and digests[2] in deleted
    assert store.total_bytes() <= 3 * one_size
    fresh = BlobStore(tmp_path)
    assert fresh.has(digests[0])
    assert not fresh.has(digests[1])


def test_stored_text_is_canonical_json(tmp_path):
    store = BlobStore(tmp_path)
    doc = {"z": 1, "a": {"y": 2, "b": 3}}
    digest = store.put(doc)
    path = tmp_path / "objects" / digest[:2] / f"{digest}.json"
    assert path.read_text(encoding="utf-8") == canonical_json(doc)
    assert json.loads(path.read_text(encoding="utf-8")) == doc
