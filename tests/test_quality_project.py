"""Whole-program analyzer: ProjectContext plumbing and RPR009-RPR012.

Every rule gets at least one true-positive fixture (a small synthetic
package tree that must trigger it) and negative cases showing the
sanctioned patterns pass.  The live-tree guarantee (all twelve rules
clean over ``src/repro``) lives in test_quality_engine.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.quality import RULES, ModuleInfo, Rule, lint_paths, lint_source
from repro.quality.project_rules import LAYERS

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)


def _project_lint(root: Path, rule_id: str):
    report = lint_paths([root], rules=[RULES[rule_id]])
    return report.findings


def _messages(findings) -> list[str]:
    return [f"{f.rule_id}: {f.message}" for f in findings]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_project_registry_holds_the_four_documented_rules():
    project = {r: rule for r, rule in RULES.items() if rule.scope == "project"}
    assert sorted(project) == ["RPR009", "RPR010", "RPR011", "RPR012"]
    for rule_id, rule in project.items():
        assert isinstance(rule, Rule)
        assert rule.rule_id == rule_id
        assert rule.summary
        # a lone source string is no program: lint_source skips them
        assert lint_source(UNSEEDED, rules=[rule]) == []


UNSEEDED = "import numpy as np\nrng = np.random.default_rng()\n"


def test_full_registry_reports_a_project_finding_once(tmp_path):
    _write_tree(tmp_path, {"gen.py": UNSEEDED})
    report = lint_paths([tmp_path])
    assert [f.rule_id for f in report.findings] == ["RPR010"]


# ---------------------------------------------------------------------------
# the import resolver file rules share
# ---------------------------------------------------------------------------


def _module(source: str, module: str = "pkg.mod") -> ModuleInfo:
    return ModuleInfo(
        path="mod.py",
        module=module,
        is_package=False,
        tree=ast.parse(source),
        source=source,
    )


RESOLVER_SOURCE = """\
import numpy as np
import numpy.random as npr
import concurrent.futures
from numpy import random
from json import dump as write_json
from .sibling import helper


def timed():
    import time as clock
    from multiprocessing import Pool
    return clock.time(), Pool
"""


@pytest.mark.parametrize(
    ("expr", "qualified"),
    [
        ("np.random.rand", "numpy.random.rand"),
        ("npr.rand", "numpy.random.rand"),
        ("random.rand", "numpy.random.rand"),
        ("write_json", "json.dump"),
        ("clock.time", "time.time"),
        ("Pool", "multiprocessing.Pool"),
        (
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
        ),
        ("helper", "pkg.sibling.helper"),
    ],
)
def test_qualified_names_follow_every_import_spelling(expr, qualified):
    module = _module(RESOLVER_SOURCE)
    assert module.qualified_names(ast.parse(expr, mode="eval").body) == {
        qualified
    }


@pytest.mark.parametrize("expr", ["numpy.random.rand", "dump", "timed().x"])
def test_qualified_names_ignore_unimported_roots(expr):
    module = _module(RESOLVER_SOURCE)
    assert module.qualified_names(ast.parse(expr, mode="eval").body) == set()


def test_qualified_names_keep_every_binding_of_a_name():
    module = _module(
        "def a():\n    import time\n\ndef b():\n    from time import time\n"
    )
    expr = ast.parse("time", mode="eval").body
    assert module.qualified_names(expr) == {"time", "time.time"}


# ---------------------------------------------------------------------------
# the node index and symbol table every rule reads
# ---------------------------------------------------------------------------

SCOPES_SOURCE = """\
@deco(lambda: 0)
def outer(seed=f()):
    class Box:
        size = g()
        def method(self):
            return h()
    async def job():
        return k()
    return Box, job
"""


def test_scopes_of_chains_the_enclosing_functions():
    module = _module(SCOPES_SOURCE)
    calls = {
        ast.unparse(call.func): [fn.name for fn in module.scopes_of(call)]
        for call in module.nodes(ast.Call)
    }
    # decorators and defaults count as inside the def; class bodies and
    # lambdas open no scope; async defs do
    assert calls == {
        "deco": ["outer"],
        "f": ["outer"],
        "g": ["outer"],
        "h": ["outer", "method"],
        "k": ["outer", "job"],
    }
    assert [fn.name for fn in module.nodes(ast.FunctionDef)] == [
        "outer", "method"
    ]
    assert [fn.name for fn in module.nodes(ast.AsyncFunctionDef)] == ["job"]
    assert module.scopes_of(module.tree) == ()


def test_nodes_follow_ast_walk_order():
    module = _module(SCOPES_SOURCE)
    walked = [n for n in ast.walk(module.tree) if isinstance(n, ast.Name)]
    assert list(module.nodes(ast.Name)) == walked


def test_symbol_table_top_level_keeps_last_body_binding():
    module = _module(
        "import os\n"
        "from x import *\n"
        "def f(): pass\n"
        "if os:\n"
        "    g = 1\n"
        "f = 2\n"
        "__all__ = ['f']\n"
    )
    table = module.symbols
    assert table.top_level == {"os": 1, "f": 6, "__all__": 7}
    assert table.bindings == {"f": 3, "g": 5}
    assert table.import_bindings == {"os": 1}
    assert table.top_level_all == table.declared_all == {"f"}


def test_layer_map_covers_every_shipped_subpackage():
    import repro

    src = Path(repro.__file__).resolve().parent
    shipped = {
        p.name for p in src.iterdir() if (p / "__init__.py").exists()
    }
    assert shipped <= set(LAYERS), shipped - set(LAYERS)
    assert LAYERS["core"] == 0
    assert LAYERS["core"] < LAYERS["heuristics"] < LAYERS["experiments"]
    assert LAYERS["experiments"] < LAYERS["service"] < LAYERS["cli"]


# ---------------------------------------------------------------------------
# RPR009 — fork/pickle safety
# ---------------------------------------------------------------------------


def test_rpr009_flags_lambda_submitted_to_pool(tmp_path):
    _write_tree(tmp_path, {
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(lambda x: x + 1, 1)\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR009")
    assert any("lambda" in f.message for f in found), _messages(found)


def test_rpr009_flags_nested_function_submitted_to_pool(tmp_path):
    _write_tree(tmp_path, {
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    def inner(x):\n"
            "        return x\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(inner, 1)\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR009")
    assert any("nested function `inner`" in f.message for f in found)


def test_rpr009_nested_means_inside_any_function(tmp_path):
    # a def inside a method of a class inside a function is nested, and
    # so is that method; async defs count at every level
    _write_tree(tmp_path, {
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    class Helper:\n"
            "        def method(self):\n"
            "            def deep(x):\n"
            "                return x\n"
            "            return deep\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(deep, 1), pool.submit(method, 2)\n"
            "async def serve():\n"
            "    def handler(x):\n"
            "        return x\n"
            "    async def job(x):\n"
            "        return x\n"
            "    pool = ProcessPoolExecutor()\n"
            "    return pool.submit(handler, 1), pool.map(job, [1])\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR009")
    assert sorted(
        f.message.split("`")[1] for f in found if "nested" in f.message
    ) == ["deep", "handler", "job", "method"], _messages(found)


def test_rpr009_methods_of_module_level_classes_are_not_nested(tmp_path):
    _write_tree(tmp_path, {
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class Tool:\n"
            "    def work(self):\n"
            "        return 0\n"
            "def work(x):\n"
            "    return x\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, 1)\n"
        ),
    })
    assert _project_lint(tmp_path, "RPR009") == ()


def test_rpr009_follows_worker_across_modules_to_global_mutation(tmp_path):
    _write_tree(tmp_path, {
        "worker.py": (
            "CACHE = {}\n"
            "def work(x):\n"
            "    CACHE[x] = x * 2\n"
            "    return CACHE[x]\n"
        ),
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from worker import work\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, 3)\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR009")
    hits = [f for f in found if "mutates module global `CACHE`" in f.message]
    assert hits, _messages(found)
    # anchored in the worker's module, where the fix belongs
    assert hits[0].path.endswith("worker.py")


def test_rpr009_flags_setflags_write_true(tmp_path):
    _write_tree(tmp_path, {
        "views.py": (
            "import numpy as np\n"
            "def thaw(arr):\n"
            "    arr.setflags(write=True)\n"
            "    return arr\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR009")
    assert any("setflags(write=True)" in f.message for f in found)


def test_rpr009_accepts_module_level_pure_worker(tmp_path):
    _write_tree(tmp_path, {
        "worker.py": (
            "def work(x):\n"
            "    acc = {}\n"
            "    acc[x] = x * 2\n"
            "    return acc[x]\n"
        ),
        "runner.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from worker import work\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, 3)\n"
        ),
    })
    assert _project_lint(tmp_path, "RPR009") == ()


# ---------------------------------------------------------------------------
# RPR010 — RNG provenance
# ---------------------------------------------------------------------------


def test_rpr010_flags_no_arg_default_rng(tmp_path):
    _write_tree(tmp_path, {
        "gen.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR010")
    assert any("no seed" in f.message for f in found)


def test_rpr010_flags_entropy_seed(tmp_path):
    _write_tree(tmp_path, {
        "gen.py": (
            "import time\n"
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng(int(time.time()))\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR010")
    assert any("entropy source" in f.message for f in found)


def test_rpr010_flags_entropy_through_local_assignment(tmp_path):
    _write_tree(tmp_path, {
        "gen.py": (
            "import time\n"
            "import numpy as np\n"
            "def fresh():\n"
            "    t = time.time()\n"
            "    return np.random.default_rng(t)\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR010")
    assert any("does not derive" in f.message for f in found)


def test_rpr010_flags_entropy_at_cross_module_call_site(tmp_path):
    _write_tree(tmp_path, {
        "maker.py": (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        "caller.py": (
            "import time\n"
            "from maker import make\n"
            "def bad():\n"
            "    return make(time.time())\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR010")
    hits = [f for f in found if "seed stream of `make`" in f.message]
    assert hits, _messages(found)
    assert hits[0].path.endswith("caller.py")


@pytest.mark.parametrize(
    "body",
    [
        # injected parameter
        "def make(seed):\n    return np.random.default_rng(seed)\n",
        # derived from a parameter
        "def make(seed):\n    return np.random.default_rng(seed * 3 + 1)\n",
        # self state
        "class A:\n"
        "    def gen(self):\n"
        "        return np.random.default_rng(self.base_seed)\n",
        # another generator's output
        "def split(rng):\n"
        "    return np.random.default_rng(rng.integers(2**63))\n",
        # module constant
        "SEED = 1234\n"
        "def make():\n    return np.random.default_rng(SEED)\n",
        # literal seed (deterministic by construction)
        "def make():\n    return np.random.default_rng(42)\n",
    ],
)
def test_rpr010_accepts_injected_seed_patterns(tmp_path, body):
    _write_tree(tmp_path, {"gen.py": "import numpy as np\n" + body})
    assert _project_lint(tmp_path, "RPR010") == ()


@pytest.mark.parametrize(
    "maker",
    [
        # the seed root is a parameter two functions out
        "def make(seed):\n"
        "    def middle():\n"
        "        def inner():\n"
        "            return np.random.default_rng(seed)\n"
        "        return inner()\n"
        "    return middle()\n",
        # a class body inside the function opens no scope
        "def make(seed):\n"
        "    class Box:\n"
        "        rng = np.random.default_rng(seed)\n"
        "    return Box.rng\n",
        # async defs are scopes like any other
        "async def make(seed):\n"
        "    return np.random.default_rng(seed)\n",
    ],
)
def test_rpr010_seed_parameter_of_an_enclosing_function(tmp_path, maker):
    _write_tree(tmp_path, {
        "maker.py": "import numpy as np\n" + maker,
        "caller.py": (
            "import time\n"
            "from maker import make\n"
            "def bad():\n"
            "    return make(time.time())\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR010")
    assert [(Path(f.path).name, f.line) for f in found] == [
        ("caller.py", 4)
    ], _messages(found)
    assert "seed stream of `make`" in found[0].message


def test_rpr010_default_counts_as_inside_its_def(tmp_path):
    # Python evaluates a default in the enclosing scope, but the rule
    # reads it as part of the def: `seed` is taken as the parameter
    _write_tree(tmp_path, {
        "gen.py": (
            "import numpy as np\n"
            "def make(seed, rng=np.random.default_rng(seed)):\n"
            "    return rng\n"
        ),
    })
    assert _project_lint(tmp_path, "RPR010") == ()


def test_rpr010_accepts_clean_cross_module_call_site(tmp_path):
    _write_tree(tmp_path, {
        "maker.py": (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        "caller.py": (
            "from maker import make\n"
            "def good(base_seed):\n"
            "    return make(base_seed + 7)\n"
        ),
    })
    assert _project_lint(tmp_path, "RPR010") == ()


# ---------------------------------------------------------------------------
# RPR011 — layering and cycles
# ---------------------------------------------------------------------------


def test_rpr011_flags_import_cycle(tmp_path):
    _write_tree(tmp_path, {
        "alpha.py": "import beta\nX = 1\n",
        "beta.py": "import alpha\nY = 2\n",
    })
    found = _project_lint(tmp_path, "RPR011")
    assert any("import cycle" in f.message for f in found), _messages(found)
    # one finding per cycle, not one per member
    assert sum("import cycle" in f.message for f in found) == 1


def test_rpr011_function_scope_import_breaks_no_cycle(tmp_path):
    _write_tree(tmp_path, {
        "alpha.py": "import beta\nX = 1\n",
        "beta.py": "def late():\n    import alpha\n    return alpha.X\n",
    })
    assert _project_lint(tmp_path, "RPR011") == ()


def test_rpr011_flags_forbidden_upward_layer_edge(tmp_path):
    _write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "from repro.heuristics import helper\n",
        "repro/heuristics/__init__.py": "def helper():\n    return 1\n",
    })
    found = _project_lint(tmp_path, "RPR011")
    hits = [f for f in found if "forbidden layering edge" in f.message]
    assert hits, _messages(found)
    assert "repro.core" in hits[0].message
    assert "repro.heuristics" in hits[0].message


def test_rpr011_accepts_downward_layer_edge(tmp_path):
    _write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "W = 1\n",
        "repro/heuristics/__init__.py": "from repro.core import W\nV = W\n",
    })
    assert _project_lint(tmp_path, "RPR011") == ()


# ---------------------------------------------------------------------------
# RPR012 — export consistency
# ---------------------------------------------------------------------------


def test_rpr012_flags_stale_cross_module_import(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a.py": "__all__ = ['x']\nx = 1\n",
        "pkg/b.py": "from pkg.a import missing\n",
    })
    found = _project_lint(tmp_path, "RPR012")
    assert any(
        "names a symbol the target module never binds" in f.message
        for f in found
    ), _messages(found)


def test_rpr012_respects_module_getattr(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a.py": "def __getattr__(name):\n    return 1\n",
        "pkg/b.py": "from pkg.a import anything\n_use = anything\n",
    })
    assert _project_lint(tmp_path, "RPR012") == ()


def test_rpr012_flags_reexport_all_drift(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": (
            "from .m import name\n"
            "__all__ = ['name']\n"
        ),
        "pkg/m.py": "__all__ = []\nname = 1\n",
    })
    found = _project_lint(tmp_path, "RPR012")
    assert any(
        "public surfaces disagree" in f.message for f in found
    ), _messages(found)


def test_rpr012_flags_dead_public_symbol(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/m.py": (
            "__all__ = ['used']\n"
            "used = 1\n"
            "dead = 2\n"
        ),
    })
    found = _project_lint(tmp_path, "RPR012")
    hits = [f for f in found if "`dead`" in f.message]
    assert hits, _messages(found)
    assert "dead public surface" in hits[0].message


def test_rpr012_accepts_consistent_exports(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": (
            "from .m import name\n"
            "__all__ = ['name']\n"
        ),
        "pkg/m.py": "__all__ = ['name']\nname = 1\n",
    })
    assert _project_lint(tmp_path, "RPR012") == ()


def test_rpr012_own_module_use_is_not_dead(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/m.py": (
            "Alias = tuple[int, ...]\n"
            "def f(x: Alias) -> Alias:\n"
            "    return x\n"
            "__all__ = ['f']\n"
        ),
    })
    assert _project_lint(tmp_path, "RPR012") == ()


def test_rpr012_flags_lazy_export_the_submodule_never_binds(tmp_path):
    _write_tree(tmp_path, {
        "pkg/__init__.py": (
            "_LAZY = {'real': '.m', 'ghost': '.m', 'm': '.m'}\n"
            "__all__ = ['real', 'ghost', 'm']\n"
        ),
        "pkg/m.py": "__all__ = ['real']\nreal = 1\n",
    })
    found = _project_lint(tmp_path, "RPR012")
    assert [f.message for f in found] == [
        "lazy export `ghost` names `pkg.m`, which never binds it"
    ], _messages(found)


def test_rpr006_star_import_binds_no_public_name(tmp_path):
    _write_tree(tmp_path, {
        "repro/__init__.py": "__all__ = []\n",
        "repro/pkg/__init__.py": 'from .mod import *\n__all__ = ["f"]\n',
        "repro/pkg/mod.py": "def f():\n    return 1\n",
    })
    found = _project_lint(tmp_path, "RPR006")
    assert [(Path(f.path).name, f.line, f.message) for f in found] == [
        ("__init__.py", 2, "__all__ lists `f` but the package never binds it")
    ]


# ---------------------------------------------------------------------------
# suppression and engine integration
# ---------------------------------------------------------------------------


def test_project_findings_respect_inline_noqa(tmp_path):
    _write_tree(tmp_path, {
        "gen.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()  # repro: noqa[RPR010]\n"
        ),
    })
    report = lint_paths([tmp_path], rules=[RULES["RPR010"]])
    assert report.findings == ()
    assert report.suppressed == 1
