"""Domain-aware static analysis for the reproduction codebase.

This subpackage is tooling *about* the library rather than part of the
paper's math: an AST-based lint engine whose per-file rules
(RPR001-RPR008, RPR013-RPR014) enforce the invariants the feasibility
analysis and the DES validation depend on — epsilon-safe float
comparison, injected seeded randomness, frozen model objects,
fully-typed public math APIs, loud failures, audited package surfaces,
bounded waits, monotonic duration measurement, supervised-only process
pools, and atomic-only durable writes —
and whose whole-program rules (RPR009-RPR012)
prove the *cross-module* properties one file cannot witness:
fork/pickle safety of process-pool workers, RNG-seed provenance across
call boundaries, acyclic downward-only package layering, and
cross-module export consistency.  See ``docs/quality.md`` for the rule
catalog and rationale.

Use it from the command line (``repro lint src/repro``) or as a library::

    from repro.quality import lint_paths
    report = lint_paths(["src/repro"])
    assert report.ok, [f.render() for f in report.findings]
"""

from .engine import (
    LintEngine,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    module_name_for,
)
from .findings import Finding, Severity
from .formats import render_github
from .project import (
    PROJECT_RULES,
    ModuleInfo,
    ProjectContext,
    ProjectRule,
    build_project,
    register_project,
)
from .rules import RULES, Rule, RuleContext, register

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleInfo",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "RuleContext",
    "Severity",
    "build_project",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "register_project",
    "render_github",
]

#: Every registered rule id — per-file and project-scoped combined.
ALL_RULE_IDS: tuple[str, ...] = tuple(sorted(set(RULES) | set(PROJECT_RULES)))
