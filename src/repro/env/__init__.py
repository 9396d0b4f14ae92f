"""The Banger environment: project facade and instant feedback.

``BangerShell`` is resolved on first use (PEP 562): the shell drives the
pipeline through :mod:`repro.server.ops`, which builds projects here, so
importing it with the package would make ``repro.env`` and
``repro.server`` import each other.
"""

from repro.env.advisor import Advice, advise, render_advice
from repro.env.feedback import Feedback, project_feedback
from repro.env.project import BangerProject

__all__ = [
    "Advice",
    "BangerProject",
    "BangerShell",
    "Feedback",
    "advise",
    "project_feedback",
    "render_advice",
]


def __getattr__(name: str):
    if name != "BangerShell":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.env.shell import BangerShell

    return BangerShell
