"""The lint engine: file discovery, parsing, rule dispatch, suppression.

The engine is importable (``LintEngine``/:func:`lint_paths` /
:func:`lint_source`) and drives the ``repro lint`` CLI subcommand.  One
run is one pass:

* each file is read and parsed once into a
  :class:`~repro.quality.project.ModuleInfo` (a file that does not parse
  is reported as RPR000 and left out), whose tree is walked once, on
  first use, into the node index every rule reads;
* the parsed modules form one
  :class:`~repro.quality.project.ProjectContext`;
* every enabled rule of the one :data:`~repro.quality.rules.RULES`
  registry runs once over it — file rules (RPR001–RPR008,
  RPR013–RPR014) check each module in turn, project rules
  (RPR009–RPR012) see the whole program;
* inline ``# repro: noqa`` / ``# repro: noqa[RPR001,RPR004]`` comments on
  the offending line suppress findings of any rule (counted in
  :attr:`LintReport.suppressed`).

:func:`lint_source` lints one in-memory source with the file rules only.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .findings import Finding
from .project import ModuleInfo, ProjectContext
from .rules import RULES, Rule

# Importing the project rules registers them next to the file rules.
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
    findings: Iterable[Finding], modules: Iterable[ModuleInfo]
) -> tuple[list[Finding], int]:
    """Split findings into (kept, suppressed-count) under inline noqa."""
    noqa = {module.path: _noqa_map(module.source) for module in modules}
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        allowed = noqa.get(finding.path, {}).get(finding.line, frozenset())
        if allowed is None or (allowed and finding.rule_id in allowed):
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


def _parse(source: str, path: str, module: str) -> ModuleInfo | Finding:
    """One file's :class:`ModuleInfo`, or its RPR000 syntax-error finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule_id="RPR000",
            message=f"syntax error: {exc.msg}",
            hint="file could not be parsed; no rules were run",
        )
    return ModuleInfo(
        path=path,
        module=module,
        is_package=Path(path).name == "__init__.py",
        tree=tree,
        source=source,
    )


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
    """The full registry, in id order."""
    return tuple(RULES[rule_id] for rule_id in sorted(RULES))


@dataclass
class LintEngine:
    """Run a set of rules over files or in-memory source.

    Parameters
    ----------
    rules:
        Rule instances to run; defaults to the full registry (file and
        project rules).
    """

    rules: Sequence[Rule] = field(default_factory=_default_rules)

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        module: str | None = None,
    ) -> list[Finding]:
        """Lint a source string with the file rules among :attr:`rules`.

        ``module`` controls package-scoped rules; project rules need the
        whole program and are not run.
        """
        if module is None:
            module = module_name_for(Path(path)) if path != "<string>" else ""
        parsed = _parse(source, path, module)
        if isinstance(parsed, Finding):
            return [parsed]
        raw = [
            finding
            for rule in self.rules
            if rule.scope == "file"
            for finding in rule.check(parsed)
        ]
        kept, _ = _apply_noqa(raw, [parsed])
        return sorted(kept)

    def run(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint every python file under ``paths`` in one pass."""
        files = list(iter_python_files(paths))
        modules: list[ModuleInfo] = []
        unparsed: list[Finding] = []
        for file_path in files:
            parsed = _parse(
                file_path.read_text(encoding="utf-8"),
                str(file_path),
                module_name_for(file_path),
            )
            if isinstance(parsed, Finding):
                unparsed.append(parsed)
            else:
                modules.append(parsed)
        project = ProjectContext(modules)
        raw = [
            finding
            for rule in self.rules
            for finding in rule.check_project(project)
        ]
        kept, suppressed = _apply_noqa(raw, modules)
        return LintReport(
            findings=tuple(sorted(unparsed + kept)),
            suppressed=suppressed,
            files_checked=len(files),
        )


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
