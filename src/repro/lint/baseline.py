"""Baseline suppression: fail only on findings new since a recorded run.

``banger lint --baseline old-report.sarif`` reads a previously-rendered
SARIF report (our own :func:`repro.lint.render.to_sarif` output, or any
SARIF 2.1.0 document with ``ruleId`` / ``message`` / logical locations)
and filters the current report down to findings not present in it.  The
match key is ``(rule, node, message)`` — deliberately *not* the source
line, so reformatting a program does not resurrect suppressed findings;
editing the message (which embeds the variable names involved) does.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ValidationError, malformed_as
from repro.lint.diagnostics import Diagnostic, Report

#: One recorded finding: (rule_id, logical node name, message text).
BaselineKey = tuple[str, str, str]


def _result_key(result: dict) -> BaselineKey:
    node = ""
    for location in result.get("locations", ()):
        for logical in location.get("logicalLocations", ()):
            if logical.get("name"):
                node = logical["name"]
                break
    return (
        str(result.get("ruleId", "")),
        node,
        str(result.get("message", {}).get("text", "")),
    )


@malformed_as(ValidationError, "SARIF baseline")
def load_baseline(path: str | pathlib.Path) -> frozenset[BaselineKey]:
    """The finding keys recorded in a SARIF report on disk.

    Raises :class:`ValidationError` on files that are not SARIF-shaped, so a
    typo'd path to a project JSON fails loudly instead of suppressing nothing.
    """
    doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "runs" not in doc:
        raise ValidationError(f"{path}: not a SARIF report (no 'runs' array)")
    keys: set[BaselineKey] = set()
    for run in doc["runs"]:
        for result in run.get("results", ()):
            keys.add(_result_key(result))
    return frozenset(keys)


def diagnostic_key(d: Diagnostic) -> BaselineKey:
    return (d.rule_id, d.node, d.message)


def apply_baseline(report: Report, baseline: frozenset[BaselineKey]) -> Report:
    """A copy of ``report`` with baseline-recorded findings removed."""
    kept = tuple(
        d for d in report.diagnostics if diagnostic_key(d) not in baseline
    )
    return Report(kept, report.name, report.suppressed)
