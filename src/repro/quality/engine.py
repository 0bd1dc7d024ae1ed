"""The lint engine: file discovery, parsing, rule dispatch, suppression.

The engine is importable (``LintEngine``/:func:`lint_paths` /
:func:`lint_source`) and drives the ``repro lint`` CLI subcommand.  One
run has two analysis passes:

* **per-file** — each file is parsed once and every enabled per-file
  rule (RPR001–RPR008, RPR013) runs over the shared AST;
* **whole-program** — every successfully parsed module is assembled into
  a :class:`~repro.quality.project.ProjectContext` (import graph, symbol
  tables, cross-module references) and each enabled
  :class:`~repro.quality.project.ProjectRule` (RPR009–RPR012) runs once
  over the whole project.

Inline ``# repro: noqa`` / ``# repro: noqa[RPR001,RPR004]`` comments on
the offending line suppress findings of either pass (counted in
:attr:`LintReport.suppressed`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .findings import Finding
from .project import (
    PROJECT_RULES,
    ModuleInfo,
    ProjectRule,
    build_project,
)
from .rules import RULES, Rule, RuleContext

# Importing the rule modules populates the registries the default rule
# set is built from.
from . import project_rules as project_rules  # noqa: F401

__all__ = [
    "LintEngine",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".ruff_cache",
        ".mypy_cache",
        "build",
        "dist",
    }
)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py``s.

    Falls back to the bare stem for a file outside any package — rules
    scoped by package (RPR004, RPR006) then simply do not apply.
    """
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                token.strip().upper()
                for token in rules.split(",")
                if token.strip()
            )
    return suppressions


def _apply_noqa(
    findings: Iterable[Finding],
    suppressions: Mapping[int, frozenset[str] | None],
) -> tuple[list[Finding], int]:
    """Split findings into (kept, suppressed-count) under a noqa map."""
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        allowed = suppressions.get(finding.line, frozenset())
        if allowed is None or (allowed and finding.rule_id in allowed):
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


@dataclass(frozen=True)
class LintReport:
    """Outcome of one engine run."""

    findings: tuple[Finding, ...]
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self) -> Mapping[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts


def _default_rules() -> tuple[Rule, ...]:
    """Full registry: per-file rules then project rules, id order."""
    return tuple(RULES[rid] for rid in sorted(RULES)) + tuple(
        PROJECT_RULES[rid] for rid in sorted(PROJECT_RULES)
    )


@dataclass
class LintEngine:
    """Run a set of rules over files or in-memory source.

    Parameters
    ----------
    rules:
        Rule instances to run; defaults to the full registry (per-file
        and project-scoped).
    """

    rules: Sequence[Rule] = field(default_factory=_default_rules)

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        module: str | None = None,
    ) -> list[Finding]:
        """Lint a source string; ``module`` controls package-scoped rules."""
        kept, _ = self._lint_source_counted(source, path=path, module=module)
        return kept

    def _lint_source_counted(
        self,
        source: str,
        path: str = "<string>",
        module: str | None = None,
    ) -> tuple[list[Finding], int]:
        """Per-file pass on one source: (kept findings, suppressed count)."""
        if module is None:
            module = module_name_for(Path(path)) if path != "<string>" else ""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id="RPR000",
                    message=f"syntax error: {exc.msg}",
                    hint="file could not be parsed; no rules were run",
                )
            ], 0
        ctx = RuleContext(path=path, module=module, tree=tree, source=source)
        raw = [f for rule in self.rules for f in rule.check(ctx)]
        kept, suppressed = _apply_noqa(raw, _noqa_map(source))
        return sorted(kept), suppressed

    def lint_file(self, path: str | Path) -> list[Finding]:
        file_path = Path(path)
        source = file_path.read_text(encoding="utf-8")
        return self.lint_source(source, path=str(file_path))

    def run(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint every python file under ``paths``."""
        entries = [
            (str(file_path), file_path.read_text(encoding="utf-8"))
            for file_path in iter_python_files(paths)
        ]
        per_file = LintEngine(
            rules=tuple(
                r for r in self.rules if not isinstance(r, ProjectRule)
            )
        )
        project_rules_ = tuple(
            r for r in self.rules if isinstance(r, ProjectRule)
        )
        findings: list[Finding] = []
        suppressed = 0
        for path, source in entries:
            kept, count = per_file._lint_source_counted(source, path=path)
            findings.extend(kept)
            suppressed += count
        if project_rules_:
            kept, count = self._run_project_rules(entries, project_rules_)
            findings.extend(kept)
            suppressed += count
        return LintReport(
            findings=tuple(sorted(findings)),
            suppressed=suppressed,
            files_checked=len(entries),
        )

    # -- whole-program pass ------------------------------------------------------

    def _run_project_rules(
        self,
        entries: Sequence[tuple[str, str]],
        project_rules_: Sequence[ProjectRule],
    ) -> tuple[list[Finding], int]:
        """Build the project context and run every project rule once.

        Files that fail to parse are skipped here — the per-file pass
        already reported them as RPR000.  Project findings respect the
        same inline noqa suppressions as per-file ones.
        """
        infos: list[ModuleInfo] = []
        noqa_by_path: dict[str, dict[int, frozenset[str] | None]] = {}
        for path, source in entries:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            file_path = Path(path)
            infos.append(
                ModuleInfo(
                    path=path,
                    module=module_name_for(file_path),
                    is_package=file_path.name == "__init__.py",
                    tree=tree,
                    source=source,
                )
            )
            noqa_by_path[path] = _noqa_map(source)
        if not infos:
            return [], 0
        project = build_project(infos)
        raw = [
            finding
            for rule in project_rules_
            for finding in rule.check_project(project)
        ]
        kept: list[Finding] = []
        suppressed = 0
        for finding in raw:
            file_kept, count = _apply_noqa(
                [finding], noqa_by_path.get(finding.path, {})
            )
            kept.extend(file_kept)
            suppressed += count
        return kept, suppressed


def lint_paths(
    paths: Iterable[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Functional entry point: lint ``paths`` with ``rules`` (default all)."""
    if rules is None:
        return LintEngine().run(paths)
    return LintEngine(rules=tuple(rules)).run(paths)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    *,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Functional entry point: lint one source string."""
    engine = LintEngine() if rules is None else LintEngine(rules=tuple(rules))
    return engine.lint_source(source, path=path, module=module)
