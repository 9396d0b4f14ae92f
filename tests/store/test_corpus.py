"""The first-class scenario corpus: coverage, idempotence, dedup payoff."""

import pytest

from repro.graph.generators import FAMILIES, NEW_FAMILIES
from repro.store import ProjectRepository
from repro.store.corpus import (
    CORPUS_TENANT,
    corpus_names,
    corpus_document,
    corpus_taskgraph,
    example_names,
    family_project_doc,
    seed_corpus,
)


def test_corpus_covers_examples_and_every_family():
    names = corpus_names()
    assert set(example_names()) <= set(names)
    for family in FAMILIES:
        assert f"family_{family}" in names
    assert len(names) == len(example_names()) + len(FAMILIES)


def test_the_store_pr_added_at_least_five_new_families():
    assert len(NEW_FAMILIES) >= 5
    for family in NEW_FAMILIES:
        assert family in FAMILIES
        tg = FAMILIES[family]()
        assert len(tg.task_names) >= 4
        assert tg.edges, f"{family} generated an edge-free graph"


def test_seed_corpus_stores_every_project(tmp_path):
    repo = ProjectRepository(tmp_path)
    stored = seed_corpus(repo)
    assert sorted(stored) == sorted(corpus_names())
    for name in corpus_names():
        assert repo.refs.exists(CORPUS_TENANT, name)


def test_seed_corpus_is_idempotent_by_content(tmp_path):
    repo = ProjectRepository(tmp_path)
    first = seed_corpus(repo)
    second = seed_corpus(repo)
    for name in corpus_names():
        assert second[name]["version"] == 1, f"{name} grew a version"
        assert second[name]["manifest"] == first[name]["manifest"]


def test_corpus_dedup_ratio_exceeds_one(tmp_path):
    """Shared structure across 22 projects must actually deduplicate."""
    repo = ProjectRepository(tmp_path)
    seed_corpus(repo)
    assert repo.blobs.stats.dedup_ratio > 1.0


def test_republishing_the_corpus_under_a_second_tenant_stores_no_new_bytes(tmp_path):
    repo = ProjectRepository(tmp_path)
    seed_corpus(repo)
    seeded = repo.blobs.total_bytes()
    for name in corpus_names():
        repo.put("mirror", name, repo.get(CORPUS_TENANT, name), message="republish")
    assert repo.blobs.total_bytes() == seeded
    assert len(repo.refs.projects("mirror")) == len(corpus_names())


def test_family_projects_round_trip_byte_identically(tmp_path):
    from repro.graph.serialize import fingerprint

    repo = ProjectRepository(tmp_path)
    for family in sorted(FAMILIES):
        doc = family_project_doc(family)
        info = repo.put(CORPUS_TENANT, f"rt_{family}", doc)
        got = repo.get(CORPUS_TENANT, f"rt_{family}")
        assert got == doc, family
        assert fingerprint(got) == info["project"], family


def test_corpus_document_is_what_seed_corpus_stores(tmp_path):
    repo = ProjectRepository(tmp_path)
    seed_corpus(repo)
    assert repo.refs.projects(CORPUS_TENANT) == sorted(corpus_names())
    for name in corpus_names():
        assert repo.get(CORPUS_TENANT, name) == corpus_document(name), name
    with pytest.raises(KeyError):
        corpus_document("no_such_project")


@pytest.mark.parametrize("family", sorted(NEW_FAMILIES))
def test_corpus_taskgraphs_flatten_and_schedule(family):
    from repro.machine import MachineParams
    from repro.machine.machine import make_machine
    from repro.sched import SCHEDULERS

    tg = corpus_taskgraph(f"family_{family}")
    machine = make_machine("hypercube", 4, MachineParams())
    schedule = SCHEDULERS["mh"]().schedule(tg, machine)
    assert schedule.makespan() > 0.0
