"""``banger projects`` and the ``store://`` / ``corpus://`` project URIs."""

import json

import pytest

from repro.cli import main
from repro.store import ProjectRepository
from repro.store.corpus import example_project


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated on-disk store selected via BANGER_STORE_DIR."""
    root = tmp_path / "store"
    monkeypatch.setenv("BANGER_STORE_DIR", str(root))
    return root


@pytest.fixture
def project_file(tmp_path):
    path = tmp_path / "lu.json"
    example_project("lu_decomposition").save(str(path))
    return str(path)


def test_put_get_log_round_trip(store, project_file, tmp_path, capsys):
    assert main(["projects", "put", "alice/lu", project_file, "-m", "v1"]) == 0
    assert "alice/lu@1" in capsys.readouterr().out

    out_path = tmp_path / "back.json"
    assert main(["projects", "get", "alice/lu@1", "-o", str(out_path)]) == 0
    original = json.loads(open(project_file, encoding="utf-8").read())
    assert json.loads(out_path.read_text(encoding="utf-8")) == original

    assert main(["projects", "log", "alice/lu"]) == 0
    log_out = capsys.readouterr().out
    assert "v1 " in log_out and "v1" in log_out


def test_list_tenants_and_projects(store, project_file, capsys):
    main(["projects", "put", "alice/lu", project_file])
    main(["projects", "put", "alice/lu", project_file, "-m", "again"])
    capsys.readouterr()
    assert main(["projects", "list"]) == 0
    # the reply's store census is printed, not computed and dropped
    blobs, stored = ProjectRepository(str(store)).blobs.census()
    assert capsys.readouterr().out == (
        "alice  (1 project(s))\n"
        f"1 project(s), 2 version(s), {blobs} blob(s), {stored} byte(s) on disk\n"
    )
    assert main(["projects", "list", "alice"]) == 0
    assert "alice/lu@2" in capsys.readouterr().out
    assert main(["projects", "list", "nobody"]) == 1


def test_fork_and_diff(store, project_file, capsys):
    main(["projects", "put", "alice/lu", project_file])
    assert main(["projects", "fork", "alice/lu", "bob/mylu"]) == 0
    assert "bob/mylu@1" in capsys.readouterr().out
    assert main(["projects", "diff", "alice/lu", "bob/mylu"]) == 0
    assert "identical" in capsys.readouterr().out
    # --fail-on-diff flips the exit code only when content differs
    assert main(
        ["projects", "diff", "alice/lu", "bob/mylu", "--fail-on-diff"]
    ) == 0


def test_diff_json_output(store, project_file, capsys):
    main(["projects", "put", "alice/lu", project_file])
    main(["projects", "fork", "alice/lu", "alice/lu2"])
    capsys.readouterr()
    assert main(["projects", "diff", "alice/lu", "alice/lu2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identical"] is True


def test_seed_then_store_uri_loads(store, capsys):
    assert main(["projects", "seed"]) == 0
    assert "22 corpus project(s)" in capsys.readouterr().out
    assert main(["outline", "store://corpus/family_wavefront"]) == 0
    assert "wavefront" in capsys.readouterr().out


def test_corpus_uri_needs_no_store_at_all(capsys):
    assert main(["outline", "corpus://family_pipeline"]) == 0
    assert "pipeline" in capsys.readouterr().out


def test_gc_reports_counts(store, project_file, capsys):
    main(["projects", "put", "alice/lu", project_file])
    # plant an orphan blob, then collect it
    repo = ProjectRepository(str(store))
    repo.blobs.put({"orphan": True})
    capsys.readouterr()
    assert main(["projects", "gc"]) == 0
    assert "deleted 1 blob(s)" in capsys.readouterr().out


def test_bad_refs_exit_with_usage_error(store, capsys):
    assert main(["projects", "log", "no-slash"]) == 2
    assert "expected tenant/name" in capsys.readouterr().err
    assert main(["projects", "get", "alice/lu@notanumber"]) == 2


def test_missing_project_exits_one(store, capsys):
    assert main(["projects", "get", "alice/absent"]) == 1
    assert "no project alice/absent" in capsys.readouterr().err
    assert main(["schedule", "store://alice/absent"]) == 2


def test_unknown_corpus_name_is_a_usage_error(capsys):
    assert main(["outline", "corpus://no_such_design"]) == 2
    assert "no project" in capsys.readouterr().err
