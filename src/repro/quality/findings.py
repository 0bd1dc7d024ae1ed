"""Structured lint findings.

A :class:`Finding` is the unit of output of the ``repro.quality`` engine:
one rule violation, anchored to a ``file:line:col`` location, carrying the
rule id, a severity, a human-readable message, and a fix hint.  Findings
are frozen and totally ordered so reports are deterministic regardless of
rule-execution order — the same property the DES validator relies on for
replay, applied to the toolchain itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Finding", "Severity"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail ``repro lint`` (non-zero exit); ``WARNING``
    findings are reported but do not affect the exit status.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        """``file:line:col: RULE message  [hint]`` single-line report."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text

