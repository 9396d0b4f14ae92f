"""Exception hierarchy shared by every Banger subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
type.  Subsystems raise the most specific subclass available; the message is
always actionable (it names the offending node, arc, processor, or source
location) because "instant feedback" is one of the paper's three goals.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Iterator


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


def error_document(kind: str, message: str, **extra: Any) -> dict[str, Any]:
    """The daemon's error reply, on every route: ``kind`` names the failure
    class, ``message`` is the sentence the CLI prints, ``extra`` adds fields."""
    return {"type": "banger-error", "kind": kind, "message": message, **extra}


@contextlib.contextmanager
def malformed_as(error: type[ReproError], what: str) -> Iterator[None]:
    """Decorate (or wrap) a document loader: the shape errors of reading an
    untrusted ``what`` document — a missing key, a wrong type, an unparsable
    number — are raised as ``error``, so every driver (CLI, daemon, library)
    sees one typed failure instead of catching ``KeyError`` and friends."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} document: {exc!r}") from None


def check_finite(value: float, what: str, error: type[ReproError]) -> None:
    """Refuse a NaN or infinite ``value``, or an int too large for a float,
    as ``error``: a reply would echo it, or what it computes, as the
    ``NaN`` / ``Infinity`` tokens JSON does not have.  Called after the
    range check, so a value that is no number fails as it always has."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise error(f"{what} must be a finite number, got {value!r}")


class GraphError(ReproError):
    """Structural problem in a dataflow graph (unknown node, duplicate name)."""


class CycleError(GraphError):
    """A dataflow graph contains a precedence cycle.

    Attributes
    ----------
    cycle:
        A list of node names forming the cycle, in order, when known.
    """

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle else []


class ValidationError(ReproError):
    """An object failed semantic validation; ``problems`` lists every issue."""

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = list(problems) if problems else []


class MachineError(ReproError):
    """Bad target-machine description (parameters or topology)."""


class RoutingError(MachineError):
    """No route exists between two processors of a topology."""


class ScheduleError(ReproError):
    """A schedule is malformed or violates precedence/occupancy rules."""


class CalcError(ReproError):
    """Base class for PITS calculator-language errors."""


class CalcSyntaxError(CalcError):
    """Lexical or grammatical error in a PITS program.

    Attributes
    ----------
    message:
        The complaint without its position prefix.
    line, column:
        1-based source position of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.message = message
        self.line = line
        self.column = column


class CalcNameError(CalcError):
    """Reference to an undeclared variable or unknown function."""


class CalcTypeError(CalcError):
    """Operation applied to operands of the wrong type."""


class CalcRuntimeError(CalcError):
    """Runtime failure while interpreting a PITS program (e.g. divide by 0)."""


class CalcLimitError(CalcRuntimeError):
    """A PITS program exceeded its step budget (runaway loop protection)."""


class CodegenError(ReproError):
    """Code generation failed (e.g. a node has no PITS program)."""


class SimError(ReproError):
    """Discrete-event simulation failed or was given inconsistent input."""


class StoreError(ReproError):
    """Project-store failure (unknown ref, missing blob, corrupt manifest)."""


class StoreNotFound(StoreError):
    """No such tenant, project, version, blob or ``/projects`` route (404)."""


class StoreCorruption(StoreError):
    """Stored content no longer reassembles to the hash that names it (500)."""


class StoreWriteError(StoreError):
    """The store directory refused a blob or a ref, so nothing new points
    at it and no version was acknowledged (500)."""


class QuotaExceeded(StoreError):
    """A tenant write was refused because it would exceed a quota.

    Attributes
    ----------
    tenant:
        The tenant whose write was refused.
    quota, usage:
        The limit that was hit and the usage that would have resulted.
    """

    def __init__(self, message: str, tenant: str = "",
                 quota: int = 0, usage: int = 0):
        super().__init__(message)
        self.tenant = tenant
        self.quota = quota
        self.usage = usage
