"""The daemon's response LRU (``daemon._cache``, a :class:`repro.lru.LRU`) is
bounded by entries *and* by body bytes, and a reply is admitted by its size.

Before the byte bound, 512 replies to a 600-task edit (~490 kB each) pinned
~250 MB for the life of the daemon.  The share rule: a reply within one
entry's share of the byte bound (``RESPONSE_CACHE_MAX_BYTES`` over the entry
bound, 128 KiB at the defaults) is stored when first computed; a larger one
only when its body is computed a second time (``daemon._seen`` holds the
hashes waiting for that), so one-off edit replies are answered, not kept.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import BangerClient
from repro.errors import ReproError
from repro.server import BangerDaemon
from repro.server import app as app_mod
from repro.server.app import RESPONSE_CACHE_MAX_BYTES
from repro.server.ops import shared_service
from tests.server.test_coalesce import _slow_execute

MIB = 1024 * 1024
#: An entry bound so large that the share is 1 KiB, under any schedule reply.
MANY_ENTRIES = 1 << 16


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
    assert daemon._cache.peek("small") == b"x" and daemon._cache.peek("huge") is None
    assert daemon._cache.keys() == ["small"] and daemon._cache.bytes == 1


def test_metrics_report_entries_as_before_plus_bytes():
    daemon = make_daemon(cache_entries=4)
    for i in range(6):
        daemon._cache.put(f"k{i}", b"abc")
    doc = daemon._metrics_doc()["response_cache"]
    assert doc["entries"] == 4 and doc["max_entries"] == 4
    assert doc["bytes"] == 12 and doc["max_bytes"] == RESPONSE_CACHE_MAX_BYTES
    assert doc["share_bytes"] == RESPONSE_CACHE_MAX_BYTES // 4 == 16 * MIB
    assert doc["deferred"] == 0
    daemon._keep("big", bytes(16 * MIB + 1))
    doc = daemon._metrics_doc()["response_cache"]
    assert doc["deferred"] == 1 and doc["bytes"] == 12
    assert make_daemon()._metrics_doc()["response_cache"]["share_bytes"] == 128 * 1024


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


def schedule_bodies(project_doc, n: int) -> list[dict]:
    """``n`` distinct ``/schedule`` bodies: the project renamed, so every
    reply differs too (it quotes the name)."""
    return [{**project_doc, "name": f"figure1-{i}"} for i in range(n)]


def test_replies_over_the_share_are_answered_and_not_stored(daemon_factory,
                                                            project_doc):
    harness = daemon_factory(workers=0, cache_entries=MANY_ENTRIES)
    daemon = harness.daemon
    assert daemon._share == 1024
    for body in schedule_bodies(project_doc, 40):
        assert harness.client.schedule(body)["project"] == body["name"]
    assert daemon._cache.bytes == 0 and len(daemon._cache) == 0
    assert len(daemon._seen) == min(40, daemon.cache_entries) == 40
    doc = harness.client.metrics()
    assert doc["response_cache"]["deferred"] == 40
    assert doc["server"]["by_disposition"]["computed"] == 40


def test_a_reply_over_the_share_is_stored_on_its_second_computation(
    daemon_factory, project_doc
):
    harness = daemon_factory(workers=0, cache_entries=MANY_ENTRIES)
    body = json.dumps({"project": project_doc}, sort_keys=True).encode()
    replies = [harness.post_bytes("/schedule", body) for _ in range(3)]
    dispositions = [r["disposition"] for r in harness.records
                    if r["path"] == "/schedule"]
    assert dispositions == ["computed", "computed", "cache"]
    assert {status for status, _ in replies} == {200}
    assert len({reply for _, reply in replies}) == 1
    assert len(replies[0][1]) > harness.daemon._share
    assert len(harness.daemon._cache) == 1 and len(harness.daemon._seen) == 0
    assert harness.client.metrics()["response_cache"]["deferred"] == 1


def test_a_burst_over_the_share_still_runs_the_scheduler_once(
    daemon_factory, project_doc, monkeypatch
):
    n_clients = 12
    harness = daemon_factory(workers=0, cache_entries=MANY_ENTRIES, queue_limit=64)
    monkeypatch.setattr(app_mod, "execute", _slow_execute(0.4))
    before = shared_service().stats()

    def one_request(_: int) -> dict:
        return BangerClient(port=harness.daemon.port).schedule(project_doc,
                                                               scheduler="mh")

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        docs = list(pool.map(one_request, range(n_clients)))
    assert all(doc == docs[0] for doc in docs)
    assert shared_service().stats().misses - before.misses == 1
    server = harness.client.metrics()["server"]
    assert server["by_disposition"]["computed"] == 1
    assert server["coalesce_hits"] == n_clients - 1
    # Answered to all twelve, stored for none: the hash waits in _seen.
    assert len(harness.daemon._cache) == 0 and len(harness.daemon._seen) == 1


class Sized:
    """A reply of ``n`` bytes that allocates none: only its length counts."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n


@st.composite
def traffic(draw):
    """An entry bound, a fixed reply size per body, and the order bodies
    are asked in; sizes straddle the share and the whole byte bound."""
    entries = draw(st.integers(0, 6))
    share = RESPONSE_CACHE_MAX_BYTES // max(entries, 1)
    size = st.one_of(
        st.integers(1, share),
        st.integers(share + 1, RESPONSE_CACHE_MAX_BYTES + 1),
        st.just(RESPONSE_CACHE_MAX_BYTES + 1),
    )
    sizes = draw(st.lists(size, min_size=1, max_size=10))
    asks = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=40))
    return entries, sizes, asks


@settings(max_examples=200, deadline=None)
@given(traffic())
def test_admission_matches_a_dict_model(case):
    entries, sizes, asks = case
    daemon = make_daemon(cache_entries=entries)
    share = RESPONSE_CACHE_MAX_BYTES // max(entries, 1)
    assert daemon._share == share
    replies = [Sized(n) for n in sizes]
    stored: dict[int, int] = {}  # body -> reply size, oldest first
    seen: dict[int, None] = {}  # bodies deferred once, oldest first
    deferred = 0
    for body in asks:
        size = sizes[body]
        hit = daemon._cache.get(body) is not None
        assert hit == (body in stored)
        if hit:
            stored[body] = stored.pop(body)
            continue
        daemon._keep(body, replies[body])  # the daemon computed it
        if size > share and body not in seen:
            seen[body] = None
            deferred += 1
            assert daemon._cache.peek(body) is None  # first sight: deferred
        else:
            seen.pop(body, None)
            if size <= RESPONSE_CACHE_MAX_BYTES:
                stored[body] = size
                if entries:
                    assert daemon._cache.peek(body) is replies[body]
        while len(stored) > entries or sum(stored.values()) > RESPONSE_CACHE_MAX_BYTES:
            del stored[next(iter(stored))]
        while len(seen) > entries:
            del seen[next(iter(seen))]
        assert daemon._cache.keys() == list(stored)
        assert daemon._seen.keys() == list(seen)
        assert daemon._cache.bytes == sum(stored.values()) <= RESPONSE_CACHE_MAX_BYTES
        assert len(daemon._seen) <= entries
        assert daemon._deferred == deferred
