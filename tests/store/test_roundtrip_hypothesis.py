"""Property tests over the whole corpus: the store's three core invariants.

For *every* corpus family and example, under arbitrary version churn:

* ``put -> get`` is byte-identical (canonical JSON in, canonical JSON out);
* ``fork -> diff`` reports identity (a fork shares its origin's manifest);
* storing related content more than once deduplicates (ratio > 1).
"""

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.serialize import canonical_json, fingerprint
from repro.store import ProjectRepository
from repro.store.corpus import (
    CORPUS_TENANT,
    corpus_names,
    corpus_document,
    seed_corpus,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(name=st.sampled_from(corpus_names()))
@_SETTINGS
def test_put_get_byte_identical_for_every_corpus_entry(name):
    with tempfile.TemporaryDirectory() as root:  # one store per example
        repo = ProjectRepository(root)
        doc = corpus_document(name)
        info = repo.put("t", name, doc)
        got = repo.get("t", name)
        assert canonical_json(got) == canonical_json(doc)
        assert fingerprint(got) == info["project"]


@given(
    name=st.sampled_from(corpus_names()),
    version_churn=st.integers(min_value=0, max_value=3),
)
@_SETTINGS
def test_fork_then_diff_is_identical(name, version_churn):
    with tempfile.TemporaryDirectory() as root:  # one store per example
        repo = ProjectRepository(root)
        doc = corpus_document(name)
        repo.put("t", "p", doc)
        for i in range(version_churn):
            repo.put("t", "p", dict(doc, name=f"churn{i}"))
        pinned = 1  # fork the original version, not the churned head
        info = repo.fork("t", "p", "u", "q", version=pinned)
        delta = repo.diff("t", "p", version_a=pinned, to_tenant="u", to_name="q")
        assert delta["identical"] is True
        assert info["manifest"] == repo.refs.resolve("t", "p", pinned)["manifest"]
        assert repo.get("u", "q") == doc


@given(
    names=st.lists(
        st.sampled_from(corpus_names()), min_size=2, max_size=5, unique=True
    )
)
@_SETTINGS
def test_any_corpus_subset_stored_twice_deduplicates(names):
    with tempfile.TemporaryDirectory() as root:  # one store per example
        repo = ProjectRepository(root)
        for tenant in ("alice", "bob"):
            for name in names:
                repo.put(tenant, name, corpus_document(name))
        assert repo.blobs.stats.dedup_ratio > 1.0
        # the second tenant's copies created no new blobs at all
        assert repo.blobs.stats.dedup_hits > 0


def test_live_corpus_round_trips_everything(tmp_path):
    """Non-property belt-and-braces: every seeded entry reinflates verified."""
    repo = ProjectRepository(tmp_path)
    seed_corpus(repo)
    for name in corpus_names():
        doc = repo.get(CORPUS_TENANT, name)  # raises on fingerprint mismatch
        assert doc == corpus_document(name)
        assert doc["type"] == "banger-project"
