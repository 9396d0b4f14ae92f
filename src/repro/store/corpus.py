"""The first-class scenario corpus: every stock workload, stored.

The paper's environment is a repository of *reusable* parallel designs;
this module is that repository's seed content.  It gathers the six shipped
applications (:mod:`repro.apps`, the ones ``examples/save_projects.py``
writes as JSON) and one project per :data:`repro.graph.generators.FAMILIES`
entry — including the five families added with the store (pipeline,
wavefront, ML train/apply, bitonic, cholesky) — and publishes them all
under the reserved ``corpus`` tenant.

Everything downstream draws from here: the conformance fuzzer's
``CaseGenerator`` mixes corpus graphs into its case stream (read from
:func:`corpus_document` directly, no store built), ``banger sweep
corpus://<name>`` runs against a freshly seeded store, and the store
benchmark measures dedup over exactly this content.

This module imports ``repro.apps`` and ``repro.env``; it is deliberately
NOT imported from ``repro.store.__init__`` (see the note there).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.graph.generators import FAMILIES, as_dataflow
from repro.graph.hierarchy import flatten
from repro.graph.serialize import dataflow_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.store.repository import ProjectRepository

#: The reserved tenant every seeded workload lives under (quota-exempt).
CORPUS_TENANT = "corpus"


def _example_factories() -> dict[str, Callable[[], Any]]:
    """The six legacy shipped applications, by project name."""
    from repro.apps import (
        heat_design,
        lu3_design,
        lun_design,
        matmul_design,
        montecarlo_design,
        pipeline_design,
    )

    return {
        "lu_decomposition": lu3_design,
        "lu_blocked": lambda: lun_design(4),
        "heat_equation": heat_design,
        "matrix_multiply": matmul_design,
        "montecarlo_pi": montecarlo_design,
        "signal_pipeline": pipeline_design,
    }


def example_project(name: str) -> Any:
    """One legacy example as a :class:`BangerProject`, built exactly the way
    ``examples/save_projects.py`` builds it — so its content hash matches
    the JSON shipped in ``examples/`` byte for byte."""
    from repro.env.project import BangerProject
    from repro.machine import MachineParams

    factory = _example_factories()[name]
    project = BangerProject(name).set_design(factory())
    project.set_machine(
        "hypercube", 4, MachineParams(msg_startup=0.2, transmission_rate=20.0)
    )
    return project


def family_project_doc(family: str) -> dict[str, Any]:
    """One generator family as a ``banger-project`` document.

    The task graph is lifted to a drawn design (``as_dataflow``) and paired
    with the default 8-processor hypercube, giving sweeps and fuzz cases a
    complete, schedulable project.
    """
    from repro.machine import MachineParams
    from repro.machine.machine import make_machine

    design = as_dataflow(FAMILIES[family]())
    machine = make_machine("hypercube", 8, MachineParams())
    return {
        "type": "banger-project",
        "name": f"family_{family}",
        "design": dataflow_to_dict(design),
        "machine": machine.to_dict(),
    }


def example_names() -> list[str]:
    """The six legacy shipped-application names, sorted."""
    return sorted(_example_factories())


def corpus_names() -> list[str]:
    """Every seeded corpus project name, sorted (examples + families)."""
    return sorted(_example_factories()) + sorted(
        f"family_{f}" for f in FAMILIES
    )


def corpus_document(name: str) -> dict[str, Any]:
    """The ``banger-project`` document :func:`seed_corpus` stores as
    ``corpus/<name>``; :class:`KeyError` for a name not in the corpus."""
    if name.startswith("family_"):
        return family_project_doc(name.removeprefix("family_"))
    return example_project(name).to_dict()


def seed_corpus(repo: ProjectRepository) -> dict[str, dict[str, Any]]:
    """Publish the full corpus into ``repo`` under the ``corpus`` tenant.

    Idempotent by content: re-seeding an already seeded repository only
    appends new versions when content actually changed — and the blob tier
    deduplicates everything regardless.  Returns name → put() info.
    """
    out: dict[str, dict[str, Any]] = {}
    for name in sorted(_example_factories()):
        doc = example_project(name).to_dict()
        out[name] = _put_if_changed(repo, name, doc, "seed: shipped example")
    for family in sorted(FAMILIES):
        doc = family_project_doc(family)
        out[f"family_{family}"] = _put_if_changed(
            repo, f"family_{family}", doc, f"seed: {family} generator family"
        )
    return out


def _put_if_changed(
    repo: ProjectRepository, name: str, doc: dict[str, Any], message: str
) -> dict[str, Any]:
    from repro.graph.serialize import fingerprint

    if repo.refs.exists(CORPUS_TENANT, name):
        entry = repo.refs.head(CORPUS_TENANT, name)
        project = repo.blobs.get(entry["manifest"])["project"]
        if project == fingerprint(doc):
            return {
                "tenant": CORPUS_TENANT,
                "name": name,
                "version": entry["v"],
                "manifest": entry["manifest"],
                "project": project,
            }
    return repo.put(CORPUS_TENANT, name, doc, message=message)


# --------------------------------------------------------------------- #
# corpus graphs for fuzzing, sweeps and benchmarks
# --------------------------------------------------------------------- #
_taskgraphs_lock = threading.Lock()
_taskgraphs: dict[str, TaskGraph] = {}


def corpus_taskgraph(name: str) -> TaskGraph:
    """The flattened scheduling view of one corpus project (cached)."""
    with _taskgraphs_lock:
        cached = _taskgraphs.get(name)
    if cached is not None:
        return cached
    from repro.graph.serialize import dataflow_from_dict

    tg = flatten(dataflow_from_dict(corpus_document(name)["design"]))
    with _taskgraphs_lock:
        _taskgraphs[name] = tg
    return tg
