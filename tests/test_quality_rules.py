"""Each RPR rule fires on a minimal bad fixture and stays quiet on the
equivalent clean code.

Every positive fixture is engineered to trigger its rule *exactly once*
so a regression that doubles (or silences) a rule is caught precisely.
"""

from __future__ import annotations

import pytest

from repro.quality import RULES, lint_source

#: module name that puts fixtures inside the packages RPR004 polices.
CORE_MOD = "repro.core.fixture"
#: module name outside any policed package.
OUTSIDE_MOD = "somepkg.fixture"


def findings_for(source: str, rule_id: str, module: str = CORE_MOD):
    """Run one rule over a fixture and return its findings."""
    return lint_source(source, module=module, rules=[RULES[rule_id]])


# ---------------------------------------------------------------------------
# RPR001 — float equality
# ---------------------------------------------------------------------------

RPR001_BAD = """\
def f(x: float) -> bool:
    return x == 1.0
"""

RPR001_CLEAN = """\
from repro.core.numeric import isclose

def f(x: float) -> bool:
    return isclose(x, 1.0)
"""


def test_rpr001_fires_once_on_float_literal_eq():
    found = findings_for(RPR001_BAD, "RPR001")
    assert len(found) == 1
    assert found[0].rule_id == "RPR001"
    assert found[0].line == 2
    assert "isclose" in found[0].hint


def test_rpr001_clean_fixture_passes():
    assert findings_for(RPR001_CLEAN, "RPR001") == []


@pytest.mark.parametrize(
    "expr",
    [
        "a / b == c",  # division result compared exactly
        "x != 0.5",  # != against a float literal
        "float(s) == t",  # float() call
        "np.sqrt(x) == y",  # math call heuristic
        "-1.0 == x",  # unary minus over a float literal
    ],
)
def test_rpr001_flags_computed_float_comparisons(expr):
    src = f"def f(a, b, c, x, y, s, t, np):\n    return {expr}\n"
    assert len(findings_for(src, "RPR001")) == 1


@pytest.mark.parametrize(
    "expr",
    [
        "n == 3",  # int comparison is exact and fine
        "name == 'x'",  # strings unaffected
        "a <= 1.0",  # ordering comparisons are fine
        "a is None",  # identity untouched
    ],
)
def test_rpr001_ignores_exact_comparisons(expr):
    src = f"def f(n, name, a):\n    return {expr}\n"
    assert findings_for(src, "RPR001") == []


def test_rpr001_chained_comparison_flags_each_float_link():
    src = "def f(a, b):\n    return a == b == 1.0\n"
    # a == b is unknown-type (not flagged); b == 1.0 is flagged.
    assert len(findings_for(src, "RPR001")) == 1


# ---------------------------------------------------------------------------
# RPR002 — unseeded randomness
# ---------------------------------------------------------------------------

RPR002_BAD = """\
import numpy as np

def sample() -> float:
    return np.random.rand()
"""

RPR002_CLEAN = """\
import numpy as np

def sample(rng: np.random.Generator) -> float:
    return rng.random()
"""


def test_rpr002_fires_once_on_np_random_rand():
    found = findings_for(RPR002_BAD, "RPR002")
    assert len(found) == 1
    assert "Generator" in found[0].hint


def test_rpr002_function_scope_import():
    src = (
        "def draw():\n"
        "    from numpy import random\n"
        "    return random.rand()\n"
    )
    assert len(findings_for(src, "RPR002")) == 1


def test_rpr002_clean_fixture_passes():
    assert findings_for(RPR002_CLEAN, "RPR002") == []


@pytest.mark.parametrize(
    "src",
    [
        "import random\nx = random.random()\n",
        "import random as rnd\nx = rnd.randint(0, 5)\n",
        "import numpy as np\nx = np.random.shuffle([1])\n",
        "from numpy.random import rand\nx = rand()\n",
        "from numpy import random as npr\nx = npr.uniform()\n",
        "import numpy.random as nr\nx = nr.choice([1])\n",
    ],
)
def test_rpr002_flags_module_level_rng(src):
    assert len(findings_for(src, "RPR002")) == 1


@pytest.mark.parametrize(
    "src",
    [
        # the sanctioned construction path
        "import numpy as np\nrng = np.random.default_rng(3)\n",
        # annotations / instance methods on an injected generator
        "import numpy as np\ndef f(rng: np.random.Generator) -> float:\n"
        "    return rng.random()\n",
        # explicit seeding machinery
        "import numpy as np\nss = np.random.SeedSequence(7)\n",
        # a local variable that merely shares the name
        "def f(random):\n    return random.choice([1])\n",
    ],
)
def test_rpr002_allows_injected_generators(src):
    assert findings_for(src, "RPR002") == []


def test_rpr002_sees_defaults_and_decorators():
    src = (
        "import random\n"
        "@register(random.choice([1, 2]))\n"
        "def f(x=random.random()):\n"
        "    return x\n"
    )
    assert [f.line for f in findings_for(src, "RPR002")] == [2, 3]


# ---------------------------------------------------------------------------
# RPR003 — frozen-model discipline
# ---------------------------------------------------------------------------

RPR003_BAD = """\
def extend(items, acc=[]):
    acc.extend(items)
    return acc
"""

RPR003_CLEAN = """\
def extend(items, acc=None):
    acc = list(acc or ())
    acc.extend(items)
    return acc
"""


def test_rpr003_fires_once_on_mutable_default():
    found = findings_for(RPR003_BAD, "RPR003")
    assert len(found) == 1
    assert "mutable default" in found[0].message


def test_rpr003_clean_fixture_passes():
    assert findings_for(RPR003_CLEAN, "RPR003") == []


@pytest.mark.parametrize(
    "sig",
    ["a={}", "a=set()", "a=list()", "a=dict()", "*, a=[]"],
)
def test_rpr003_flags_all_mutable_default_shapes(sig):
    src = f"def f({sig}):\n    return a\n"
    assert len(findings_for(src, "RPR003")) == 1


def test_rpr003_flags_setattr_outside_post_init():
    src = (
        "class C:\n"
        "    def poke(self, v):\n"
        "        object.__setattr__(self, 'x', v)\n"
    )
    found = findings_for(src, "RPR003")
    assert len(found) == 1
    assert "__setattr__" in found[0].message


def test_rpr003_allows_setattr_in_post_init():
    src = (
        "class C:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
    )
    assert findings_for(src, "RPR003") == []


def test_rpr003_flags_mutable_defaults_at_every_level():
    # a default is evaluated where the def runs; each one is checked,
    # lambdas (also inside another def's default) included
    src = (
        "def outer(acc=[]):\n"
        "    async def inner(seen={}, *, cache=set()):\n"
        "        return seen\n"
        "    return lambda memo=[]: memo\n"
        "def wrap(cb=lambda hits=[]: hits):\n"
        "    return cb\n"
    )
    found = findings_for(src, "RPR003")
    assert [(f.line, f.col) for f in found] == [
        (1, 15), (2, 26), (2, 39), (4, 24), (5, 25)
    ]
    assert all("mutable default" in f.message for f in found)


def test_rpr003_setattr_scope_is_the_innermost_def():
    # a class body and a lambda open no scope; a nested def does
    src = (
        "class Outer:\n"
        "    def __post_init__(self):\n"
        "        class Inner:\n"
        "            object.__setattr__(self, 'a', 1)\n"
        "        fix = lambda v: object.__setattr__(self, 'b', v)\n"
        "        def poke():\n"
        "            object.__setattr__(self, 'c', 2)\n"
        "        return fix, poke\n"
    )
    assert [f.line for f in findings_for(src, "RPR003")] == [7]


def test_rpr003_setattr_in_post_init_of_a_nested_class():
    src = (
        "def build():\n"
        "    class C:\n"
        "        def __post_init__(self):\n"
        "            object.__setattr__(self, 'x', 1)\n"
        "    return C\n"
    )
    assert findings_for(src, "RPR003") == []


def test_rpr003_async_defs_are_scopes():
    src = (
        "class C:\n"
        "    async def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def __init__(self):\n"
        "        async def later():\n"
        "            object.__setattr__(self, 'y', 2)\n"
        "        self.later = later\n"
    )
    assert [f.line for f in findings_for(src, "RPR003")] == [6]


# ---------------------------------------------------------------------------
# RPR004 — annotations in the math-bearing packages
# ---------------------------------------------------------------------------

RPR004_BAD = """\
def estimate(period, count: int) -> float:
    return period * count
"""

RPR004_CLEAN = """\
def estimate(period: float, count: int) -> float:
    return period * count
"""


def test_rpr004_fires_once_on_missing_param_annotation():
    found = findings_for(RPR004_BAD, "RPR004")
    assert len(found) == 1
    assert "period" in found[0].message


def test_rpr004_clean_fixture_passes():
    assert findings_for(RPR004_CLEAN, "RPR004") == []


def test_rpr004_missing_return_annotation_is_flagged():
    src = "def f(x: int):\n    return x\n"
    found = findings_for(src, "RPR004")
    assert len(found) == 1
    assert "return annotation" in found[0].message


def test_rpr004_only_applies_to_math_packages():
    assert findings_for(RPR004_BAD, "RPR004", module=OUTSIDE_MOD) == []


def test_rpr004_skips_private_and_nested_functions():
    src = (
        "def _helper(x):\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner(x)\n"
        "class _Private:\n"
        "    def method(self, z):\n"
        "        return z\n"
    )
    assert findings_for(src, "RPR004") == []


def test_rpr004_checks_public_methods_of_public_classes():
    src = (
        "class Estimator:\n"
        "    def predict(self, x):\n"
        "        return x\n"
    )
    # one finding for params, one for the missing return annotation
    assert len(findings_for(src, "RPR004")) == 2


# ---------------------------------------------------------------------------
# RPR005 — silent exception swallowing
# ---------------------------------------------------------------------------

RPR005_BAD = """\
def run(job):
    try:
        job()
    except:
        pass
"""

RPR005_CLEAN = """\
def run(job):
    try:
        job()
    except ValueError as exc:
        raise RuntimeError("job failed") from exc
"""


def test_rpr005_fires_once_on_bare_except():
    found = findings_for(RPR005_BAD, "RPR005")
    assert len(found) == 1
    assert "bare" in found[0].message


def test_rpr005_clean_fixture_passes():
    assert findings_for(RPR005_CLEAN, "RPR005") == []


def test_rpr005_flags_broad_silent_handler():
    src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
    assert len(findings_for(src, "RPR005")) == 1


def test_rpr005_allows_narrow_or_acting_handlers():
    src = (
        "import logging\n"
        "try:\n"
        "    x = 1\n"
        "except KeyError:\n"
        "    pass\n"  # narrow type: allowed even if silent
        "try:\n"
        "    y = 2\n"
        "except Exception:\n"
        "    logging.exception('boom')\n"  # broad but acts: allowed
    )
    assert findings_for(src, "RPR005") == []


# ---------------------------------------------------------------------------
# RPR006 — __all__ hygiene
# ---------------------------------------------------------------------------

RPR006_BAD = """\
from .engine import run

__all__ = []
"""

RPR006_CLEAN = """\
from .engine import run

__all__ = ["run"]
"""


def rpr006(source: str, module: str = "repro.fixturepkg"):
    return lint_source(
        source,
        path="src/repro/fixturepkg/__init__.py",
        module=module,
        rules=[RULES["RPR006"]],
    )


def test_rpr006_fires_once_on_unexported_public_name():
    found = rpr006(RPR006_BAD)
    assert len(found) == 1
    assert "run" in found[0].message


def test_rpr006_clean_fixture_passes():
    assert rpr006(RPR006_CLEAN) == []


def test_rpr006_missing_dunder_all_is_flagged():
    assert len(rpr006("from .engine import run\n")) == 1


def test_rpr006_stale_entry_is_flagged():
    found = rpr006('__all__ = ["ghost"]\n')
    assert len(found) == 1
    assert "ghost" in found[0].message


def test_rpr006_underscore_names_stay_private():
    src = 'from .engine import run as _run\n\n__all__: list[str] = []\n'
    assert rpr006(src) == []


def test_rpr006_ignores_non_init_modules():
    found = lint_source(
        RPR006_BAD,
        path="src/repro/fixturepkg/engine.py",
        module="repro.fixturepkg.engine",
        rules=[RULES["RPR006"]],
    )
    assert found == []


def test_rpr006_ignores_packages_outside_repro():
    found = lint_source(
        RPR006_BAD,
        path="src/other/__init__.py",
        module="other",
        rules=[RULES["RPR006"]],
    )
    assert found == []


def test_rpr006_anchors_a_name_at_its_last_top_level_binding():
    src = (
        "from .engine import run\n"
        "run = run\n"
        "__all__: list[str] = []\n"
    )
    found = rpr006(src)
    assert [(f.line, f.message) for f in found] == [
        (2, "public name `run` is bound but missing from __all__")
    ]


def test_rpr006_counts_only_bindings_in_the_package_body():
    # names bound inside top-level if/try blocks are not part of the
    # audited surface: they neither need listing nor satisfy __all__
    src = (
        "from typing import TYPE_CHECKING\n"
        "__all__ = ['TYPE_CHECKING', 'fast']\n"
        "if TYPE_CHECKING:\n"
        "    from .engine import Engine\n"
        "try:\n"
        "    from ._speedups import fast\n"
        "except ImportError:\n"
        "    fast = None\n"
    )
    found = rpr006(src)
    assert [(f.line, f.message) for f in found] == [
        (2, "__all__ lists `fast` but the package never binds it")
    ]


def test_rpr006_reads_the_last_all_in_the_package_body():
    src = (
        "from .engine import run, stop\n"
        "__all__ = ['run']\n"
        "__all__ = ['run', 'stop']\n"
        "try:\n"
        "    __all__ = __all__ + ['fast']\n"
        "except NameError:\n"
        "    pass\n"
    )
    assert rpr006(src) == []


RPR006_LAZY = """\
from typing import Any as _Any

from .engine import run

_LAZY = {"engine": ".engine", "solve": ".solver"}

__all__ = ["engine", "run", "solve"]


def __getattr__(name: str) -> _Any:
    raise AttributeError(name)
"""


def rpr006_package(tmp_path, init_source: str, submodules=("engine", "solver")):
    """Lint a real package directory, so lazy targets can be resolved."""
    pkg = tmp_path / "repro" / "fixturepkg"
    pkg.mkdir(parents=True)
    for name in submodules:
        (pkg / f"{name}.py").write_text("run = solve = 1\n")
    init = pkg / "__init__.py"
    init.write_text(init_source)
    return lint_source(
        init_source,
        path=str(init),
        module="repro.fixturepkg",
        rules=[RULES["RPR006"]],
    )


def test_rpr006_accepts_lazy_exports_of_real_submodules(tmp_path):
    assert rpr006_package(tmp_path, RPR006_LAZY) == []


def test_rpr006_flags_all_entry_neither_bound_nor_lazy(tmp_path):
    source = RPR006_LAZY.replace('"solve"]', '"solve", "ghost"]')
    found = rpr006_package(tmp_path, source)
    assert [f.message for f in found] == [
        "__all__ lists `ghost` but the package never binds it"
    ]


def test_rpr006_flags_lazy_entry_naming_a_missing_module(tmp_path):
    found = rpr006_package(tmp_path, RPR006_LAZY, submodules=("engine",))
    assert [f.message for f in found] == [
        "lazy export `solve` names module `.solver`, which does not exist"
    ]


def test_rpr006_flags_lazy_public_name_missing_from_all(tmp_path):
    source = RPR006_LAZY.replace(', "solve"]', "]")
    found = rpr006_package(tmp_path, source)
    assert [f.message for f in found] == [
        "public name `solve` is bound but missing from __all__"
    ]


@pytest.mark.parametrize(
    "table",
    [
        '{name: ".engine" for name in ("engine",)}',
        '{"solve": "repro.fixturepkg.solver"}',
        '{"solve": ".solver.deep"}',
    ],
)
def test_rpr006_flags_uncheckable_lazy_tables(tmp_path, table):
    source = RPR006_LAZY.replace(
        '{"engine": ".engine", "solve": ".solver"}', table
    )
    found = rpr006_package(tmp_path, source)
    assert any("lazy export" in f.message for f in found), found


# ---------------------------------------------------------------------------
# RPR007 — unbounded blocking waits in deadline-bearing packages
# ---------------------------------------------------------------------------

#: module name inside the packages RPR007 polices.
SERVICE_MOD = "repro.service.fixture"

RPR007_BAD = """\
def wait(fut):
    return fut.result()
"""

RPR007_CLEAN = """\
def wait(fut, deadline):
    return fut.result(timeout=deadline.remaining())
"""


def test_rpr007_fires_once_on_unbounded_result():
    found = findings_for(RPR007_BAD, "RPR007", module=SERVICE_MOD)
    assert len(found) == 1
    assert found[0].rule_id == "RPR007"
    assert "timeout" in found[0].hint


def test_rpr007_clean_fixture_passes():
    assert findings_for(RPR007_CLEAN, "RPR007", module=SERVICE_MOD) == []


@pytest.mark.parametrize(
    "line",
    [
        "thread.join()",
        "work_queue.get()",
        "fut.result()",
        "q.get(block=True)",  # still unbounded without a timeout
    ],
)
def test_rpr007_flags_each_blocking_primitive(line):
    src = f"def f(thread, work_queue, fut, q):\n    {line}\n"
    found = findings_for(src, "RPR007", module=SERVICE_MOD)
    assert len(found) == 1


@pytest.mark.parametrize(
    "line",
    [
        "d.get(key)",  # dict lookup, not a queue
        '", ".join(parts)',  # string join, not a thread
        "thread.join(timeout=5.0)",
        "work_queue.get(timeout=remaining)",
    ],
)
def test_rpr007_ignores_non_blocking_lookalikes(line):
    src = f"def f(d, key, parts, thread, work_queue, remaining):\n    {line}\n"
    assert findings_for(src, "RPR007", module=SERVICE_MOD) == []


def test_rpr007_applies_to_experiments_package():
    found = findings_for(
        RPR007_BAD, "RPR007", module="repro.experiments.fixture"
    )
    assert len(found) == 1


def test_rpr007_ignores_packages_outside_scope():
    assert findings_for(RPR007_BAD, "RPR007", module=CORE_MOD) == []
    assert findings_for(RPR007_BAD, "RPR007", module=OUTSIDE_MOD) == []


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------


def test_noqa_with_rule_id_suppresses_only_that_rule():
    src = "def f(x: float) -> bool:\n    return x == 1.0  # repro: noqa[RPR001]\n"
    assert lint_source(src, module=CORE_MOD) == []


def test_noqa_bare_suppresses_every_rule_on_the_line():
    src = "def f(x, acc=[]):  # repro: noqa\n    return acc\n"
    assert lint_source(src, module=OUTSIDE_MOD) == []


def test_noqa_other_rule_id_does_not_suppress():
    src = "def f(x: float) -> bool:\n    return x == 1.0  # repro: noqa[RPR005]\n"
    found = lint_source(src, module=CORE_MOD, rules=[RULES["RPR001"]])
    assert len(found) == 1


def test_noqa_on_other_line_does_not_suppress():
    src = (
        "# repro: noqa[RPR001]\n"
        "def f(x: float) -> bool:\n"
        "    return x == 1.0\n"
    )
    found = lint_source(src, module=CORE_MOD, rules=[RULES["RPR001"]])
    assert len(found) == 1


# ---------------------------------------------------------------------------
# RPR008 — wall-clock reads for duration measurement
# ---------------------------------------------------------------------------

RPR008_BAD = """\
import time

def measure() -> float:
    start = time.time()
    return start
"""

RPR008_CLEAN = """\
import time

def measure() -> float:
    start = time.perf_counter()
    return start
"""


def test_rpr008_fires_once_on_time_time():
    found = findings_for(RPR008_BAD, "RPR008")
    assert len(found) == 1
    assert found[0].rule_id == "RPR008"
    assert found[0].line == 4
    assert "perf_counter" in found[0].hint


def test_rpr008_clean_fixture_passes():
    assert findings_for(RPR008_CLEAN, "RPR008") == []


def test_rpr008_module_alias():
    src = "import time as clock\n\nclock.time()\n"
    assert len(findings_for(src, "RPR008")) == 1


def test_rpr008_from_import():
    src = "from time import time\n\ntime()\n"
    assert len(findings_for(src, "RPR008")) == 1


def test_rpr008_from_import_alias():
    src = "from time import time as now\n\nnow()\n"
    assert len(findings_for(src, "RPR008")) == 1


def test_rpr008_function_scope_import():
    src = "def stamp():\n    import time\n    return time.time()\n"
    assert len(findings_for(src, "RPR008")) == 1


def test_rpr008_other_time_attrs_pass():
    src = (
        "import time\n\n"
        "time.perf_counter()\n"
        "time.monotonic()\n"
        "time.sleep(1)\n"
    )
    assert findings_for(src, "RPR008") == []


def test_rpr008_unrelated_time_name_passes():
    """A local callable named `time` with no time-module import is not
    the wall clock."""
    src = "def time() -> int:\n    return 0\n\ntime()\n"
    assert findings_for(src, "RPR008") == []


def test_rpr008_noqa_suppresses():
    src = "import time\n\nstamp = time.time()  # repro: noqa[RPR008]\n"
    assert lint_source(src, module=CORE_MOD, rules=[RULES["RPR008"]]) == []


# ---------------------------------------------------------------------------
# RPR013 — bare process-pool construction outside repro.parallel
# ---------------------------------------------------------------------------

RPR013_BAD = """\
from concurrent.futures import ProcessPoolExecutor

def fan_out(tasks):
    with ProcessPoolExecutor(max_workers=4) as pool:
        return [pool.submit(t) for t in tasks]
"""

RPR013_CLEAN = """\
from repro.parallel import SupervisedPool, Task

def fan_out(tasks):
    with SupervisedPool(4) as pool:
        return pool.run([Task(t) for t in tasks])
"""


def test_rpr013_fires_once_on_bare_executor():
    found = findings_for(RPR013_BAD, "RPR013", module=CORE_MOD)
    assert len(found) == 1
    assert found[0].rule_id == "RPR013"
    assert "SupervisedPool" in found[0].hint


def test_rpr013_clean_fixture_passes():
    assert findings_for(RPR013_CLEAN, "RPR013", module=CORE_MOD) == []


@pytest.mark.parametrize(
    "src",
    [
        "from concurrent.futures import ProcessPoolExecutor\n"
        "ProcessPoolExecutor()\n",
        "from concurrent.futures import ProcessPoolExecutor as PPE\n"
        "PPE(max_workers=2)\n",
        "import concurrent.futures\n"
        "concurrent.futures.ProcessPoolExecutor()\n",
        "import concurrent.futures as cf\n"
        "cf.ProcessPoolExecutor(max_workers=2)\n",
        "from concurrent import futures\n"
        "futures.ProcessPoolExecutor()\n",
        "from multiprocessing import Pool\nPool(4)\n",
        "from multiprocessing.pool import Pool\nPool(4)\n",
        "import multiprocessing\nmultiprocessing.Pool(4)\n",
        "import multiprocessing as mp\nmp.Pool(4)\n",
        "import multiprocessing.pool as mpp\nmpp.Pool(4)\n",
    ],
)
def test_rpr013_flags_every_construction_spelling(src):
    found = findings_for(src, "RPR013", module=OUTSIDE_MOD)
    assert len(found) == 1


@pytest.mark.parametrize(
    ("src", "qualname"),
    [
        ("import multiprocessing as mp\nmp.Pool(4)\n", "multiprocessing.Pool"),
        (
            "import multiprocessing.pool as mpp\nmpp.Pool(4)\n",
            "multiprocessing.pool.Pool",
        ),
        (
            "from multiprocessing import pool\npool.Pool(4)\n",
            "multiprocessing.pool.Pool",
        ),
    ],
)
def test_rpr013_names_the_pool_the_alias_resolves_to(src, qualname):
    found = findings_for(src, "RPR013", module=OUTSIDE_MOD)
    assert [f.message for f in found] == [
        f"bare `{qualname}` construction outside repro.parallel"
    ]


@pytest.mark.parametrize(
    "src",
    [
        # importing the name for typing / isinstance is legal
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f(pool: ProcessPoolExecutor) -> bool:\n"
        "    return isinstance(pool, ProcessPoolExecutor)\n",
        # other executors are not process pools
        "from concurrent.futures import ThreadPoolExecutor\n"
        "ThreadPoolExecutor(2)\n",
        # an unrelated local Pool with no multiprocessing import
        "class Pool:\n    pass\n\nPool()\n",
        # multiprocessing primitives other than Pool stay legal
        "import multiprocessing as mp\nmp.Queue()\n",
    ],
)
def test_rpr013_ignores_non_construction_uses(src):
    assert findings_for(src, "RPR013", module=OUTSIDE_MOD) == []


def test_rpr013_exempts_repro_parallel():
    found = findings_for(
        RPR013_BAD, "RPR013", module="repro.parallel.supervisor"
    )
    assert found == []


def test_rpr013_noqa_suppresses():
    src = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = ProcessPoolExecutor()  # repro: noqa[RPR013]\n"
    )
    assert lint_source(src, module=CORE_MOD, rules=[RULES["RPR013"]]) == []


# ---------------------------------------------------------------------------
# RPR014 — non-atomic durable writes outside the durability modules
# ---------------------------------------------------------------------------

RPR014_BAD = """\
import json

def save(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))
"""

RPR014_CLEAN = """\
import json
from repro.io_utils.atomic import atomic_write_text

def save(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload))
"""


def test_rpr014_flags_write_mode_open():
    found = findings_for(RPR014_BAD, "RPR014", module=OUTSIDE_MOD)
    assert len(found) == 1
    assert found[0].rule_id == "RPR014"
    assert "atomic_write_text" in found[0].hint


def test_rpr014_clean_atomic_write():
    assert findings_for(RPR014_CLEAN, "RPR014", module=OUTSIDE_MOD) == []


@pytest.mark.parametrize(
    "src",
    [
        # json.dump through a module alias
        "import json as j\n"
        "def f(handle, payload):\n"
        "    j.dump(payload, handle)\n",
        # json.dump imported directly (and renamed)
        "from json import dump as jdump\n"
        "def f(handle, payload):\n"
        "    jdump(payload, handle)\n",
        # Path.write_text / write_bytes
        "from pathlib import Path\n"
        "Path('x.json').write_text('{}')\n",
        "from pathlib import Path\n"
        "Path('x.bin').write_bytes(b'')\n",
        # Path.open in write mode (positional and keyword)
        "from pathlib import Path\n"
        "handle = Path('x').open('w')\n",
        "handle = open('x', mode='ab')\n",
        # exclusive-create mode is still a durable write
        "handle = open('x', 'x')\n",
    ],
)
def test_rpr014_flags_every_write_spelling(src):
    found = findings_for(src, "RPR014", module=OUTSIDE_MOD)
    assert len(found) == 1


@pytest.mark.parametrize(
    "src",
    [
        # read-mode opens are legal
        "handle = open('x')\n",
        "handle = open('x', 'rb')\n",
        "from pathlib import Path\nhandle = Path('x').open('r')\n",
        # a computed mode is invisible to static analysis
        "def f(path, mode):\n    return open(path, mode)\n",
        # json.dumps (the string form) is how atomic writes are built
        "import json\ntext = json.dumps({})\n",
        # an unrelated .dump method with no json import
        "class Sink:\n"
        "    def dump(self, x):\n"
        "        return x\n"
        "Sink().dump(1)\n",
        # a classmethod named open whose first arg is a path, not a mode
        "class Store:\n"
        "    @classmethod\n"
        "    def open(cls, path, config):\n"
        "        return cls()\n"
        "Store.open('cfg.json', None)\n",
    ],
)
def test_rpr014_ignores_reads_and_lookalikes(src):
    assert findings_for(src, "RPR014", module=OUTSIDE_MOD) == []


@pytest.mark.parametrize(
    "module", ["repro.io_utils.atomic", "repro.service.journal"]
)
def test_rpr014_exempts_durability_modules(module):
    assert findings_for(RPR014_BAD, "RPR014", module=module) == []


def test_rpr014_noqa_suppresses():
    src = 'handle = open("x", "w")  # repro: noqa[RPR014]\n'
    assert lint_source(src, module=CORE_MOD, rules=[RULES["RPR014"]]) == []
