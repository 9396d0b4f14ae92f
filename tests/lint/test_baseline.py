"""``banger lint --baseline``: fail only on findings new since a report."""

import json

import pytest

from repro.errors import ValidationError
from repro.lint import (
    apply_baseline,
    lint_design,
    load_baseline,
    to_sarif,
)
from repro.lint.baseline import diagnostic_key
from repro.graph.dataflow import DataflowGraph


def design_with(program):
    g = DataflowGraph("d")
    g.add_task("t", program=program)
    g.add_storage("y", data="y")
    g.connect("t", "y")
    return g


BUGGY = "output y\nlocal d\nd := 0\ny := 1 / d"


def test_roundtrip_suppresses_everything(tmp_path):
    report = lint_design(design_with(BUGGY))
    assert report.diagnostics
    path = tmp_path / "base.sarif"
    path.write_text(json.dumps(to_sarif(report)), encoding="utf-8")

    filtered = apply_baseline(report, load_baseline(path))
    assert filtered.diagnostics == ()
    assert filtered.name == report.name


def test_new_findings_survive_the_baseline(tmp_path):
    old = lint_design(design_with("output y\ny := 1"))
    path = tmp_path / "base.sarif"
    path.write_text(json.dumps(to_sarif(old)), encoding="utf-8")

    new = lint_design(design_with(BUGGY))
    filtered = apply_baseline(new, load_baseline(path))
    assert "PITS101" in [d.rule_id for d in filtered.diagnostics]


def test_key_ignores_line_numbers():
    report = lint_design(design_with(BUGGY))
    d = next(x for x in report.diagnostics if x.rule_id == "PITS101")
    # the key is (rule, node, message) — no line component
    assert diagnostic_key(d) == (d.rule_id, d.node, d.message)


def test_non_sarif_file_fails_loudly(tmp_path):
    path = tmp_path / "project.json"
    path.write_text(json.dumps({"name": "not sarif"}), encoding="utf-8")
    with pytest.raises(ValidationError, match="not a SARIF report"):
        load_baseline(path)


def test_cli_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.env.project import BangerProject

    project = BangerProject("baselined")
    project.set_design(design_with(BUGGY))
    proj_path = tmp_path / "proj.json"
    project.save(str(proj_path))

    # cold run fails and emits SARIF we can baseline against
    assert main(["lint", str(proj_path), "--format", "sarif"]) == 1
    sarif = capsys.readouterr().out
    base = tmp_path / "base.sarif"
    base.write_text(sarif, encoding="utf-8")

    # with the baseline, the same findings no longer fail the build
    assert main(["lint", str(proj_path), "--baseline", str(base)]) == 0
