"""Engine-level behavior: discovery, suppression, CLI, and — most
importantly — the guarantee that the live codebase is clean under every
rule."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import repro
from repro.quality import (
    ALL_RULE_IDS,
    RULES,
    Finding,
    LintEngine,
    lint_paths,
    lint_source,
    render_github,
)
from repro.quality.engine import iter_python_files, module_name_for

SRC_REPRO = Path(repro.__file__).resolve().parent


# ---------------------------------------------------------------------------
# the headline guarantee
# ---------------------------------------------------------------------------


def test_live_codebase_is_clean_under_all_rules():
    """The shipped source passes every RPR rule."""
    report = lint_paths([SRC_REPRO])
    assert report.files_checked > 50
    assert report.findings == (), "\n".join(
        f.render() for f in report.findings
    )
    assert report.ok


def test_registry_exposes_exactly_the_fourteen_documented_rules():
    scopes = {rule_id: rule.scope for rule_id, rule in RULES.items()}
    assert sorted(r for r, scope in scopes.items() if scope == "file") == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR007", "RPR008", "RPR013", "RPR014",
    ]
    assert sorted(r for r, scope in scopes.items() if scope == "project") == [
        "RPR009", "RPR010", "RPR011", "RPR012",
    ]
    assert len(RULES) == 14
    assert ALL_RULE_IDS == tuple(sorted(RULES))
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.summary


# ---------------------------------------------------------------------------
# discovery and module resolution
# ---------------------------------------------------------------------------


def test_iter_python_files_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("")
    (tmp_path / "notes.txt").write_text("not python")
    found = list(iter_python_files([tmp_path]))
    assert [p.name for p in found] == ["mod.py"]


def test_iter_python_files_accepts_single_files(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("x = 1\n")
    assert list(iter_python_files([target])) == [target]


def test_module_name_for_walks_packages(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "timing.py").write_text("")
    assert module_name_for(pkg / "timing.py") == "repro.core.timing"
    assert module_name_for(pkg / "__init__.py") == "repro.core"


def test_module_name_for_bare_file(tmp_path):
    script = tmp_path / "script.py"
    script.write_text("")
    assert module_name_for(script) == "script"


# ---------------------------------------------------------------------------
# engine behavior
# ---------------------------------------------------------------------------


def test_syntax_error_becomes_rpr000_finding():
    found = lint_source("def broken(:\n")
    assert len(found) == 1
    assert found[0].rule_id == "RPR000"
    assert "syntax error" in found[0].message


def test_run_parses_each_file_once(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    files = [pkg / "__init__.py", pkg / "a.py", tmp_path / "script.py"]
    for path in files:
        path.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = LintEngine().run([tmp_path])
    assert report.files_checked == 3
    assert sorted(parsed) == sorted(str(path) for path in files)


def test_run_walks_each_module_once(tmp_path, monkeypatch):
    """Every rule reads one node index per module, so a full-registry run
    makes one whole-tree walk per file.  A walk is counted where it starts:
    ``ast.iter_child_nodes`` on the module (which ``ast.walk`` and the
    index both call once per traversal) or ``NodeVisitor.visit`` on it."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    files = [pkg / "__init__.py", pkg / "a.py", tmp_path / "script.py"]
    for path in files:
        path.write_text(
            "import numpy as np\n"
            "__all__ = ['make']\n"
            "def make(seed, acc=None):\n"
            "    def inner():\n"
            "        return np.random.default_rng(seed)\n"
            "    return inner() == 1.0\n"
        )
    walks: list[str] = []
    real_children = ast.iter_child_nodes
    real_visit = ast.NodeVisitor.visit

    def counting_children(node):
        if isinstance(node, ast.Module):
            walks.append("walk")
        return real_children(node)

    def counting_visit(self, node):
        if isinstance(node, ast.Module):
            walks.append("visit")
        return real_visit(self, node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting_children)
    monkeypatch.setattr(ast.NodeVisitor, "visit", counting_visit)
    report = LintEngine().run([tmp_path])
    assert report.files_checked == 3
    assert report.by_rule() == {"RPR001": 3}
    assert walks == ["walk"] * 3


def test_findings_are_sorted_by_position():
    src = (
        "import random\n"
        "def f(x: float, acc=[]) -> bool:\n"
        "    random.seed(0)\n"
        "    return x == 1.0\n"
    )
    found = lint_source(src)
    assert found == sorted(found)
    assert [f.rule_id for f in found] == ["RPR003", "RPR002", "RPR001"]


def test_finding_render():
    finding = Finding(
        path="a.py", line=3, col=7, rule_id="RPR001",
        message="float equality", hint="use isclose",
    )
    text = finding.render()
    assert "a.py:3:7" in text and "RPR001" in text and "isclose" in text


def test_engine_run_counts_files(tmp_path):
    (tmp_path / "good.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_text("y = 1.0\nz = y == 2.0\n")
    report = LintEngine().run([tmp_path])
    assert report.files_checked == 2
    assert len(report.findings) == 1
    assert report.by_rule() == {"RPR001": 1}
    assert not report.ok


# ---------------------------------------------------------------------------
# suppression accounting
# ---------------------------------------------------------------------------

_SUPPRESSED_SRC = "y = 1.0\nz = y == 2.0  # repro: noqa[RPR001]\n"


def test_noqa_suppressions_are_counted(tmp_path):
    """run() must report how many findings noqa comments swallowed —
    the count is what keeps stale suppressions discoverable."""
    (tmp_path / "hushed.py").write_text(_SUPPRESSED_SRC)
    (tmp_path / "loud.py").write_text("y = 1.0\nz = y == 2.0\n")
    report = LintEngine().run([tmp_path])
    assert report.suppressed == 1
    assert len(report.findings) == 1
    assert report.findings[0].path.endswith("loud.py")


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def _bad_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("y = 1.0\nz = y == 2.0\n")
    return LintEngine().run([bad])




def test_render_github_annotation_lines(tmp_path):
    report = _bad_report(tmp_path)
    lines = render_github(report).splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("::error file=")
    assert "title=RPR001" in lines[0]
    assert "line=2" in lines[0]


def test_render_github_escapes_newlines_and_clean_notice(tmp_path):
    finding = Finding(
        path="a.py", line=1, col=1, rule_id="RPR001",
        message="bad\nthing: 50%",
    )
    from repro.quality.engine import LintReport

    rendered = render_github(
        LintReport(findings=(finding,), files_checked=1)
    )
    assert "\n" not in rendered
    assert "%0A" in rendered and "%25" in rendered

    clean = render_github(LintReport(findings=(), files_checked=3))
    assert clean.startswith("::notice")
    assert "clean" in clean


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*argv: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
    )


def test_cli_clean_tree_exits_zero():
    proc = _run_cli(str(SRC_REPRO))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_findings_exit_one(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("y = 1.0\nz = y == 2.0\n")
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "RPR001" in proc.stdout




def test_cli_select_limits_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("y = 1.0\nz = y == 2.0\n")
    proc = _run_cli(str(bad), "--select", "RPR005")
    assert proc.returncode == 0


def test_cli_unknown_rule_is_usage_error(tmp_path):
    proc = _run_cli(str(tmp_path), "--select", "RPR999")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_empty_select_is_usage_error(tmp_path):
    # an empty selection must not silently lint with zero rules
    proc = _run_cli(str(tmp_path), "--select", "")
    assert proc.returncode == 2
    assert "at least one rule" in proc.stderr


def test_cli_missing_path_is_usage_error(tmp_path):
    proc = _run_cli(str(tmp_path / "nope"))
    assert proc.returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ALL_RULE_IDS:
        assert rule_id in proc.stdout






def test_cli_github_format(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("y = 1.0\nz = y == 2.0\n")
    proc = _run_cli(str(bad), "--format", "github")
    assert proc.returncode == 1
    assert proc.stdout.startswith("::error file=")
    assert "title=RPR001" in proc.stdout


def test_cli_reports_suppressed_count(tmp_path):
    hushed = tmp_path / "hushed.py"
    hushed.write_text("y = 1.0\nz = y == 2.0  # repro: noqa[RPR001]\n")
    proc = _run_cli(str(hushed))
    assert proc.returncode == 0
    assert "1 suppressed" in proc.stdout


def test_module_entry_point_matches_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.quality", str(SRC_REPRO)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
