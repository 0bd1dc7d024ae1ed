"""``repro lint`` — CLI front end of the quality engine.

Exit status: 0 when no (non-suppressed) findings remain, 1 when findings
are reported, 2 on usage errors such as an unknown rule id or a missing
path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .engine import LintEngine, LintReport
from .formats import render_github
from .rules import RULES, Rule

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint`` options to an argparse (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        dest="output_format",
        help="report format (github: workflow annotation lines)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule violation count summary",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def _resolve_rules(
    select: str | None, ignore: str | None
) -> list[Rule] | None:
    """Turn --select/--ignore into a rule list; raises on unknown ids."""
    chosen = set(RULES)
    if select is not None:
        requested = {tok.strip().upper() for tok in select.split(",") if tok.strip()}
        if not requested:
            raise ValueError("--select needs at least one rule id")
        unknown = requested - set(RULES)
        if unknown:
            raise KeyError(", ".join(sorted(unknown)))
        chosen = requested
    if ignore is not None:
        dropped = {tok.strip().upper() for tok in ignore.split(",") if tok.strip()}
        unknown = dropped - set(RULES)
        if unknown:
            raise KeyError(", ".join(sorted(unknown)))
        chosen -= dropped
    return [RULES[rule_id] for rule_id in sorted(chosen)]


def _render_text(report: LintReport, statistics: bool) -> str:
    lines = [finding.render() for finding in report.findings]
    if statistics and report.findings:
        lines.append("")
        for rule_id, count in sorted(report.by_rule().items()):
            lines.append(f"{rule_id}: {count}")
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed arguments."""
    if args.list_rules:
        for rule_id, rule in sorted(RULES.items()):
            print(f"{rule_id}  [{rule.scope}]  {rule.summary}")
        return 0

    try:
        rules = _resolve_rules(args.select, args.ignore)
    except KeyError as exc:
        print(f"error: unknown rule id(s): {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    report = LintEngine(rules=tuple(rules or ())).run(args.paths)

    if args.output_format == "github":
        print(render_github(report))
    else:
        print(_render_text(report, statistics=args.statistics))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.quality``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="domain-aware static analysis for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
