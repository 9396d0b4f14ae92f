"""A line profiler for PITS routines — instant feedback about *cost*.

Trial runs tell a designer what a routine computes; the profiler tells them
where its operations go, line by line, so they know what to move into a
``forall`` or split into another node.  The program runs in the
interpreter's own compiled form, with each statement's closure wrapped to
attribute the operation counter to its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.calc.interp import DEFAULT_STEP_LIMIT, Interpreter, RunResult, _compile


@dataclass
class LineStats:
    line: int
    hits: int = 0
    ops: float = 0.0


@dataclass
class ProfileResult:
    """Per-line execution statistics plus the ordinary run result."""

    run: RunResult
    lines: dict[int, LineStats] = field(default_factory=dict)
    source: str = ""

    def hottest(self, k: int = 3) -> list[LineStats]:
        return sorted(self.lines.values(), key=lambda s: -s.ops)[:k]

    def render(self) -> str:
        src_lines = self.source.splitlines()
        total = max(self.run.ops, 1e-12)
        out = [f"{'line':>5} {'hits':>7} {'ops':>10} {'%':>5}  source"]
        for number, text in enumerate(src_lines, start=1):
            stats = self.lines.get(number)
            if stats is None:
                out.append(f"{number:>5} {'':>7} {'':>10} {'':>5}  {text}")
            else:
                share = stats.ops / total
                out.append(
                    f"{number:>5} {stats.hits:>7} {stats.ops:>10.0f} "
                    f"{share:>5.0%}  {text}"
                )
        out.append(f"total: {self.run.ops:.0f} ops, {self.run.steps} steps")
        return "\n".join(out)


class _ProfilingInterpreter(Interpreter):
    """Charges each statement the ops it consumed *itself*: the delta of
    the global counter across its execution minus whatever its nested
    statements charged to their own lines during that execution."""

    def __init__(self, program, step_limit: int = DEFAULT_STEP_LIMIT):
        super().__init__(program, step_limit=step_limit)
        self.line_stats: dict[int, LineStats] = {}

    def _compile(self):
        return _compile(self.program, self.step_limit, self._stats)

    def _stats(self, line: int) -> LineStats:
        stats = self.line_stats.get(line)
        if stats is None:
            stats = self.line_stats[line] = LineStats(line=line)
        return stats


def profile_program(
    source: str, step_limit: int = DEFAULT_STEP_LIMIT, **inputs: Any
) -> ProfileResult:
    """Trial-run ``source`` and attribute operation counts to lines.

    Block statements (loops, ifs) report their header cost; their bodies'
    costs appear on the body lines.  Column totals equal the run's total.
    """
    interp = _ProfilingInterpreter(source, step_limit=step_limit)
    run = interp.run(**inputs)
    return ProfileResult(run=run, lines=dict(interp.line_stats), source=source)
