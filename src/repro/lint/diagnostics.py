"""The common diagnostic record and report every layer reports through."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.severity import Severity
from repro.lint.rules import Rule, get_rule


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation with its location.

    ``node`` is the (possibly dot-namespaced) culprit node name, empty for
    graph- or machine-level findings; ``line`` is the PITS source line
    within the node's program, 0 when not applicable.
    """

    rule_id: str
    severity: Severity
    message: str
    node: str = ""
    line: int = 0

    @property
    def rule(self) -> Rule:
        return get_rule(self.rule_id)

    @property
    def category(self) -> str:
        return self.rule.category

    def __str__(self) -> str:
        where = f"[{self.node}] " if self.node else ""
        line = f" (line {self.line})" if self.line else ""
        return f"{self.severity.value} {self.rule_id}: {where}{self.message}{line}"


def make_diagnostic(
    rule_id: str,
    message: str,
    node: str = "",
    line: int = 0,
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the rule registry."""
    rule = get_rule(rule_id)
    return Diagnostic(rule_id, severity or rule.severity, message, node, line)


@dataclass(frozen=True)
class Report:
    """The result of one lint pass: an ordered list of diagnostics."""

    diagnostics: tuple[Diagnostic, ...] = ()
    name: str = ""
    suppressed: tuple[str, ...] = field(default=(), compare=False)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:  # truthiness = "has findings", like a list
        return bool(self.diagnostics)

    # -------------------------------------------------------------- #
    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def notes(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def error_count(self) -> int:
        return len(self.errors)

    @property
    def warning_count(self) -> int:
        return len(self.warnings)

    @property
    def ok(self) -> bool:
        """True when nothing blocks scheduling or code generation —
        exactly "no ERROR diagnostics"."""
        return self.error_count == 0

    # -------------------------------------------------------------- #
    def suppress(self, rule_ids: Iterable[str]) -> "Report":
        """A copy with the given rule IDs filtered out (recorded in
        ``suppressed`` so renderers can say what was hidden)."""
        hidden = tuple(sorted(set(rule_ids)))
        if not hidden:
            return self
        kept = tuple(d for d in self.diagnostics if d.rule_id not in hidden)
        return replace(
            self,
            diagnostics=kept,
            suppressed=tuple(sorted(set(self.suppressed) | set(hidden))),
        )

    def summary(self) -> str:
        parts = [
            f"{self.error_count} error(s)",
            f"{self.warning_count} warning(s)",
        ]
        if self.notes:
            parts.append(f"{len(self.notes)} note(s)")
        if self.suppressed:
            parts.append(f"suppressed: {', '.join(self.suppressed)}")
        return ", ".join(parts)

    def render(self) -> str:
        """Human-readable one-line-per-finding text."""
        lines = [f"lint {self.name or 'project'}: {self.summary()}"]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)
