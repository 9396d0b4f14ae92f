"""The daemon's response LRU (``daemon._cache``, a :class:`repro.lru.LRU`) is
bounded by entries *and* by body bytes.

Before the byte bound, 512 replies to a 600-task edit (~490 kB each) pinned
~250 MB for the life of the daemon.
"""

import pytest

from repro.errors import ReproError
from repro.server import BangerDaemon
from repro.server.app import RESPONSE_CACHE_MAX_BYTES

MIB = 1024 * 1024


def make_daemon(**kwargs) -> BangerDaemon:
    return BangerDaemon(port=0, workers=0, access_log=None, **kwargs)


def cached_bytes(daemon: BangerDaemon) -> int:
    return sum(len(daemon._cache.peek(key)) for key in daemon._cache.keys())


def test_the_bound_is_the_fixed_64_mib():
    assert RESPONSE_CACHE_MAX_BYTES == 64 * MIB


def test_large_bodies_are_evicted_oldest_first_by_bytes():
    daemon = make_daemon()
    body = bytes(490_000)  # one shared object: the test itself stays small
    for i in range(300):
        daemon._cache.put(f"k{i}", body)
        assert daemon._cache.bytes == cached_bytes(daemon) <= RESPONSE_CACHE_MAX_BYTES
    kept = RESPONSE_CACHE_MAX_BYTES // len(body)
    assert daemon._cache.keys() == [f"k{i}" for i in range(300 - kept, 300)]
    assert daemon._cache.get("k0") is None
    assert daemon._cache.get("k299") is body


def test_a_hit_protects_an_entry_from_byte_eviction():
    daemon = make_daemon()
    body = bytes(16 * MIB)
    for key in "abcd":
        daemon._cache.put(key, body)
    assert daemon._cache.get("a") is body  # now the most recent
    daemon._cache.put("e", body)
    assert daemon._cache.keys() == ["c", "d", "a", "e"]


def test_small_bodies_only_ever_hit_the_entry_bound():
    # warm_mix: at most 28 kB x 512 entries = 14 MiB, far under the byte bound
    daemon = make_daemon()
    body = bytes(28_000)
    for i in range(2000):
        daemon._cache.put(f"k{i}", body)
    assert len(daemon._cache) == daemon.cache_entries == 512
    assert daemon._cache.keys()[0] == "k1488"
    assert daemon._cache.bytes == 512 * 28_000 < RESPONSE_CACHE_MAX_BYTES


def test_overwriting_a_key_does_not_leak_bytes():
    daemon = make_daemon()
    daemon._cache.put("k", bytes(1000))
    daemon._cache.put("k", bytes(10))
    assert daemon._cache.bytes == cached_bytes(daemon) == 10
    assert len(daemon._cache) == 1


def test_a_body_over_the_bound_is_not_retained():
    daemon = make_daemon()
    daemon._cache.put("small", b"x")
    daemon._cache.put("huge", bytes(RESPONSE_CACHE_MAX_BYTES + 1))
    assert len(daemon._cache) == 0 and daemon._cache.bytes == 0


def test_metrics_report_entries_as_before_plus_bytes():
    daemon = make_daemon(cache_entries=4)
    for i in range(6):
        daemon._cache.put(f"k{i}", b"abc")
    doc = daemon._metrics_doc()["response_cache"]
    assert doc["entries"] == 4 and doc["max_entries"] == 4
    assert doc["bytes"] == 12 and doc["max_bytes"] == RESPONSE_CACHE_MAX_BYTES


def test_a_negative_entry_bound_is_refused_and_zero_caches_nothing(daemon_factory,
                                                                   project_doc):
    """``cache_entries=-1`` used to hang every computed request: the LRU's
    put raised after the reply was built and before it was handed over."""
    with pytest.raises(ReproError, match="cache_entries must be >= 0"):
        make_daemon(cache_entries=-1)
    harness = daemon_factory(workers=0, cache_entries=0)
    first = harness.client.schedule(project_doc)
    assert harness.client.schedule(project_doc) == first
    server = harness.client.metrics()["server"]
    assert (server["computed"], server["cache_hits"]) == (2, 0)
