"""The examples migration: store content hashes pinned byte-for-byte.

``examples/save_projects.py`` now publishes the six legacy applications
into the project store.  These hashes are the contract: the JSON files in
``examples/``, the projects :func:`repro.store.corpus.example_project`
builds, and the blobs the store reassembles must all fingerprint to the
same value.  If a refactor changes any of them, this test names the drift.
"""

import json
import pathlib

import pytest

from repro.graph.serialize import fingerprint
from repro.store import ProjectRepository
from repro.store.corpus import CORPUS_TENANT, example_names, example_project

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"

#: Pinned content fingerprints of the six shipped example projects.
PINNED = {
    "heat_equation":
        "60bf62d4fc20671a2d637614d7f1407a17f72fbca6b3f149eb4caf6bff38eb96",
    "lu_blocked":
        "16de491c6653b3899d5c3a74cc23b04f7ba1bfc7116d1c5ed70d71d75700fdaf",
    "lu_decomposition":
        "2ac546144b4b7f505b15a515e3afcde9b38524e15cb326a5178f71fe629c51bb",
    "matrix_multiply":
        "c39e088d1e1255567a6ba2bb37978df10d42a987f3000232bed82f0694611207",
    "montecarlo_pi":
        "4464192c507424834bade42e4d68d41dbf247e14aa1e34898d8e8e95dde70443",
    "signal_pipeline":
        "05c79d6865193261af13d6e20dbaf6a649ee2167a61a20b9f62723acfd4dcc71",
}


def test_the_pin_list_is_the_example_list():
    assert sorted(PINNED) == example_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_store_build_matches_pinned_hash(name):
    """The corpus build of each example fingerprints to the pinned value."""
    assert fingerprint(example_project(name).to_dict()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_json_matches_pinned_hash(name):
    """The committed examples/*.json files carry exactly the same bytes."""
    path = EXAMPLES_DIR / f"{name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert fingerprint(doc) == PINNED[name], (
        f"{path} drifted from the store build; re-run "
        f"examples/save_projects.py"
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_store_round_trip_preserves_pinned_hash(tmp_path, name):
    """put -> get through a real repository keeps the hash byte-identical."""
    repo = ProjectRepository(tmp_path)
    doc = example_project(name).to_dict()
    info = repo.put(CORPUS_TENANT, name, doc)
    assert info["project"] == PINNED[name]
    assert fingerprint(repo.get(CORPUS_TENANT, name)) == PINNED[name]


def test_save_projects_publishes_into_a_store(tmp_path, capsys):
    """The migrated script writes files *and* store versions that agree."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "save_projects", EXAMPLES_DIR / "save_projects.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["save_projects"] = module
    try:
        spec.loader.exec_module(module)
        module.HERE = tmp_path / "examples"  # keep the repo's files untouched
        module.HERE.mkdir()
        module.main(str(tmp_path / "store"))
    finally:
        sys.modules.pop("save_projects", None)
    repo = ProjectRepository(tmp_path / "store")
    for name, pinned in PINNED.items():
        doc = repo.get(CORPUS_TENANT, name)
        assert fingerprint(doc) == pinned
    out = capsys.readouterr().out
    assert "lu_decomposition" in out and "@1" in out
