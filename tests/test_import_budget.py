"""Import budget: the online paths load only the layers they run.

``repro`` resolves its subpackages on first attribute access (PEP 562),
so the mission controller and the fleet solver start without scipy or
the experiment harness.  Each check runs in a fresh
interpreter, because this test process has long since imported
everything.  The checks are on module membership, not on timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Must stay out of ``sys.modules`` after importing the online paths.
HEAVY = (
    "scipy",
    "networkx",
    "repro.experiments",
    "repro.analysis",
    "repro.lp",
    "repro.des",
)


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_online_paths_skip_heavy_layers():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.service, repro.fleet, repro.heuristics, repro.workload\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_lazy_names_still_resolve():
    resolved = _fresh(
        "import json, repro\n"
        "print(json.dumps([repro.lp.upper_bound.__name__,\n"
        "                  repro.experiments.run_fig2.__name__]))\n"
    )
    assert resolved == ["upper_bound", "run_fig2"]


def test_no_subpackage_needs_networkx():
    """networkx is not a dependency: every subpackage imports with it
    blocked (it may still be installed, so only blocking it shows a
    leftover import)."""
    imported = _fresh(
        "import importlib, json, sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "names = sorted(repro._LAZY)\n"
        "for name in names:\n"
        "    importlib.import_module('repro.' + name)\n"
        "print(json.dumps(names))\n"
    )
    assert "service" in imported and "quality" in imported


def test_star_import_binds_every_public_name():
    missing = _fresh(
        "import json, repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(json.dumps([n for n in repro.__all__ if n not in namespace]))\n"
    )
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
    assert "lp" in dir(repro)
