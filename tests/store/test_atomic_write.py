"""Two processes' worth of store instances on one directory never publish a
torn file: every writer renames a temp file that only it ever wrote."""

import itertools
import sys
import threading

from repro.errors import StoreError
from repro.graph.serialize import fingerprint
from repro.store.blobs import BlobStore
from repro.store.evict import atomic_write_text
from repro.store.refs import RefStore

N_THREADS, ROUNDS = 8, 25


def test_atomic_write_text_reports_failure_instead_of_raising(tmp_path):
    target = tmp_path / "a" / "b.json"
    assert atomic_write_text(target, "{}") is True
    assert target.read_text(encoding="utf-8") == "{}"
    blocked = tmp_path / "a" / "b.json" / "c.json"  # parent is a file
    assert atomic_write_text(blocked, "{}") is False
    assert not list(tmp_path.rglob("*.tmp*"))


def test_racing_store_writers_never_publish_a_torn_file(tmp_path):
    """8 threads x 25 rounds put each round's document through two
    ``BlobStore`` s and append through two ``RefStore`` s sharing one
    directory, while a third instance of each keeps reading."""
    docs = [{"round": r, "pad": "x" * 200_000} for r in range(ROUNDS)]
    digests = [fingerprint(doc) for doc in docs]
    blobs = [BlobStore(tmp_path) for _ in range(2)]
    refs = [RefStore(tmp_path) for _ in range(2)]
    turn = itertools.count()
    step = threading.Barrier(N_THREADS)
    done = threading.Event()
    errors: list[BaseException] = []
    reader = BlobStore(tmp_path)
    ref_seen = False

    def write() -> None:
        k = next(turn) % 2
        for r in range(ROUNDS):
            step.wait(timeout=60)  # all eight put this round's blob at once
            assert blobs[k].put(docs[r]) == digests[r]
            # histories of different lengths: a torn ref is not even JSON
            refs[k].append("acme", "design", digests[r], message="m" * (k * 500))

    def read() -> None:
        nonlocal ref_seen
        while not done.is_set():
            for digest in digests:
                try:
                    reader.get(digest)
                except StoreError:
                    pass  # not written yet
            seen = RefStore(tmp_path).exists("acme", "design")
            assert seen or not ref_seen, "a published ref became unreadable"
            ref_seen = seen

    def guarded(fn) -> None:
        try:
            fn()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(write,)) for _ in range(N_THREADS)]
        watcher = threading.Thread(target=guarded, args=(read,))
        for t in [watcher, *threads]:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        watcher.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(t.is_alive() for t in [watcher, *threads])

    assert reader.stats.evictions == 0  # never saw bytes that missed their name
    fresh = BlobStore(tmp_path)
    assert [fresh.get(d) for d in digests] == docs
    assert fresh.stats.evictions == 0
    head = RefStore(tmp_path).head("acme", "design")
    assert head["manifest"] == digests[-1]
    assert not list(tmp_path.rglob("*.tmp*"))
