"""Domain-aware static analysis for the reproduction codebase.

This subpackage is tooling *about* the library rather than part of the
paper's math: an AST-based lint engine that parses each file once and
runs every rule of one registry over the parsed project.  Its file
rules (RPR001-RPR008, RPR013-RPR014) enforce the invariants the feasibility
analysis and the DES validation depend on — epsilon-safe float
comparison, injected seeded randomness, frozen model objects,
fully-typed public math APIs, loud failures, audited package surfaces,
bounded waits, monotonic duration measurement, supervised-only process
pools, and atomic-only durable writes —
and its whole-program rules (RPR009-RPR012)
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
from .project import ModuleInfo, ProjectContext
from .rules import RULES, Rule, register

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleInfo",
    "ProjectContext",
    "RULES",
    "Rule",
    "Severity",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "render_github",
]

#: Every registered rule id, file and project rules alike.
ALL_RULE_IDS: tuple[str, ...] = tuple(sorted(RULES))
