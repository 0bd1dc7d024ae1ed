"""GitHub Actions report renderer.

``render_github`` emits `workflow command
<https://docs.github.com/actions/reference/workflow-commands-for-github-actions>`_
lines (``::error file=...,line=...::message``) that GitHub Actions turns
into inline PR annotations — the CI lint step uses it so a violation
shows up on the offending line of the diff, not in a log nobody opens.
"""

from __future__ import annotations

from .engine import LintReport
from .findings import Severity

__all__ = ["render_github"]


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (%, CR, LF, :, ,)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command message data (%, CR, LF)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(report: LintReport) -> str:
    """GitHub Actions annotation lines, one per finding.

    Emits nothing but a notice when the report is clean, so the CI log
    still shows the step did run.
    """
    lines: list[str] = []
    for finding in report.findings:
        command = (
            "error" if finding.severity is Severity.ERROR else "warning"
        )
        message = finding.message
        if finding.hint:
            message = f"{message} [{finding.hint}]"
        lines.append(
            f"::{command} "
            f"file={_escape_property(finding.path)},"
            f"line={finding.line},"
            f"col={max(finding.col, 1)},"
            f"title={_escape_property(finding.rule_id)}"
            f"::{_escape_data(message)}"
        )
    if not lines:
        lines.append(
            "::notice title=repro-lint::"
            + _escape_data(
                f"clean: 0 finding(s) in {report.files_checked} file(s)"
            )
        )
    return "\n".join(lines)
