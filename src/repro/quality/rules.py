"""Domain-specific static-analysis rules for the reproduction codebase.

Each rule encodes an invariant that the feasibility math (eqs. 1-7 of the
paper) and the deterministic-replay property of the DES validator depend
on.  Every rule — file-scoped here, whole-program in
:mod:`repro.quality.project_rules` — is registered in the one registry
:data:`RULES`; the engine runs each enabled rule once over the parsed
project and collects :class:`~repro.quality.findings.Finding`s.

The ten shipped file rules:

``RPR001``
    No ``==`` / ``!=`` on computed floating-point quantities — feasibility
    thresholds (eq. 4), slackness (eq. 7) and LP pivots must use the
    epsilon helpers in :mod:`repro.core.numeric`.
``RPR002``
    No unseeded module-level randomness (``random.*``,
    ``np.random.<sampler>``) — all randomness flows through an injected
    :class:`numpy.random.Generator` so runs replay bit-identically.
``RPR003``
    No mutable default arguments, and no ``object.__setattr__`` escape
    hatch on frozen model objects outside ``__post_init__``.
``RPR004``
    Public functions in ``core``/``heuristics``/``genitor``/``des`` must
    carry complete type annotations (every parameter and the return).
``RPR005``
    No bare ``except:`` and no silently-swallowed exceptions.
``RPR006``
    Every ``repro.*`` package ``__init__`` must declare ``__all__`` and
    keep it consistent with the names it actually binds, counting the
    names its PEP 562 ``_LAZY`` table resolves on first access; every
    lazy entry must name an existing direct submodule.
``RPR007``
    No unbounded blocking waits (``.result()`` / ``.join()`` /
    ``.get()`` without a ``timeout=``) in the deadline-bearing packages
    (``repro.service``, ``repro.experiments``) — a service that promises
    an answer within a budget must never park on an unbounded primitive.
``RPR008``
    No ``time.time()`` for duration measurement — runtime tables, GA
    telemetry and the service deadline accounting must use the
    monotonic ``time.perf_counter()``, which wall-clock adjustments
    (NTP slew, DST) cannot corrupt.
``RPR013``
    No bare ``ProcessPoolExecutor`` / ``multiprocessing.Pool``
    construction outside ``repro.parallel`` — every parallel call site
    must go through :class:`repro.parallel.SupervisedPool`, which owns
    worker liveness, deadlines, retry, quarantine, and shared-memory
    cleanup.  A raw executor silently reintroduces every failure mode
    the supervisor exists to absorb.
``RPR014``
    No non-atomic durable writes (``open(..., "w")``, ``json.dump``,
    ``Path.write_text`` / ``write_bytes``) outside the two sanctioned
    durability modules (``repro.io_utils.atomic``,
    ``repro.service.journal``) — a truncate-then-write leaves a
    half-written file behind a crash; every persistent artifact must go
    through :func:`repro.io_utils.atomic.atomic_write_text` /
    ``atomic_write_bytes`` (write-temp → fsync → ``os.replace``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import ClassVar, Iterator

from .findings import Finding, Severity
from .project import ModuleInfo, ProjectContext

__all__ = [
    "RULES",
    "BarePoolConstructionRule",
    "DurableWriteRule",
    "FloatEqualityRule",
    "FrozenModelRule",
    "MissingAnnotationsRule",
    "PublicApiRule",
    "Rule",
    "SilentExceptionRule",
    "UnboundedWaitRule",
    "UnseededRandomnessRule",
    "WallClockTimingRule",
    "anchor",
    "is_mutable_value",
    "lazy_table",
    "package_submodules",
    "register",
]


class Rule:
    """Base class for a lint rule.

    A file rule (``scope = "file"``) implements :meth:`check` over one
    parsed module, reading its nodes through
    :meth:`~repro.quality.project.ModuleInfo.nodes` rather than walking
    the tree; the inherited :meth:`check_project` runs it on every
    parsed file.  A project rule (``scope = "project"``) overrides
    :meth:`check_project` instead, to see the whole program at once.
    Rules must be stateless across runs — the registry holds a single
    instance.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    scope: ClassVar[str] = "file"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.files:
            yield from self.check(module)

    def finding(
        self, ctx: ModuleInfo, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
            hint=hint,
        )


def anchor(lineno: int, col: int = 0) -> ast.AST:
    """A stand-in node at ``lineno``/``col``, to anchor a finding where
    only the location of a binding or import is known."""
    node = ast.Pass()
    node.lineno = lineno
    node.col_offset = col
    return node


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by id) to the one registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls()
    return cls


# ---------------------------------------------------------------------------
# RPR001 — float equality
# ---------------------------------------------------------------------------

_FLOAT_MATH_CALLS = frozenset(
    {"sqrt", "exp", "log", "log2", "log10", "mean", "std", "var", "dot", "sum"}
)


def _is_float_valued(node: ast.expr) -> bool:
    """Conservatively: does ``node`` evaluate to a computed float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_valued(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_float_valued(node.left) or _is_float_valued(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        if isinstance(func, ast.Attribute) and func.attr in _FLOAT_MATH_CALLS:
            return True
    return False


@register
class FloatEqualityRule(Rule):
    """``==`` / ``!=`` against computed floats breaks feasibility math.

    Eq. (4)'s latency bound and eq. (7)'s slackness are accumulated in
    floating point; exact comparison against them (or against float
    literals such as ``x == 1.0``) is representation-dependent.  Use
    :func:`repro.core.numeric.isclose` / ``is_zero`` instead.
    """

    rule_id = "RPR001"
    summary = "no float == / != on computed quantities"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_float_valued(left) or _is_float_valued(right):
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx,
                        node,
                        f"floating-point `{sym}` comparison on a computed "
                        "quantity",
                        hint="use repro.core.numeric.isclose / is_zero",
                    )


# ---------------------------------------------------------------------------
# RPR002 — unseeded randomness
# ---------------------------------------------------------------------------

_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


@register
class UnseededRandomnessRule(Rule):
    """Module-level RNG calls bypass the injected ``Generator``.

    The DES validation (Section 7) and the GENITOR convergence results
    are only reproducible because every stochastic choice flows through a
    seeded :class:`numpy.random.Generator` handed down the call stack.
    ``random.random()`` or ``np.random.rand()`` consult hidden global
    state and silently break deterministic replay.
    """

    rule_id = "RPR002"
    summary = "no unseeded module-level randomness"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            message = self._violation(ctx, node.func)
            if message is not None:
                yield self.finding(
                    ctx,
                    node,
                    message,
                    hint="inject a numpy.random.Generator instead",
                )

    @staticmethod
    def _violation(ctx: ModuleInfo, func: ast.expr) -> str | None:
        """Why a call of ``func`` draws from hidden global RNG state."""
        for qualified in sorted(ctx.qualified_names(func)):
            module, _, attr = qualified.rpartition(".")
            legacy_numpy = (
                module == "numpy.random" and attr not in _NP_RANDOM_ALLOWED
            )
            if isinstance(func, ast.Name):
                # from-imported: `shuffle`, `rand`
                if module == "random" or legacy_numpy:
                    return f"call to module-level RNG `{func.id}`"
            elif module == "random" and attr not in {"Random", "SystemRandom"}:
                return f"call to stdlib `random.{attr}` (hidden global state)"
            elif legacy_numpy:
                return f"call to legacy `numpy.random.{attr}` global RNG"
        return None


# ---------------------------------------------------------------------------
# RPR003 — frozen-model discipline
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
)
_SETATTR_OK_SCOPES = frozenset({"__post_init__", "__init__", "__setstate__"})


def is_mutable_value(node: ast.expr) -> bool:
    """Whether ``node`` builds a fresh mutable container: a list, dict or
    set display or comprehension, or a call of a mutable constructor."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


@register
class FrozenModelRule(Rule):
    """Aliased mutable state corrupts the frozen system model.

    :class:`repro.core.model.SystemModel` and friends are frozen so that
    an :class:`~repro.core.allocation.Allocation` can be shared between
    heuristics, the GENITOR population and the DES without defensive
    copies.  Mutable default arguments alias state across calls, and
    ``object.__setattr__`` outside ``__post_init__`` defeats the freeze.
    """

    rule_id = "RPR003"
    summary = "no mutable defaults / no frozen-object mutation"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for args in ctx.nodes(ast.arguments):  # of every def and lambda
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None and is_mutable_value(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument aliases state across calls",
                        hint="default to None and construct inside",
                    )
        for node in ctx.nodes(ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            scopes = ctx.scopes_of(node)
            if not (scopes and scopes[-1].name in _SETATTR_OK_SCOPES):
                yield self.finding(
                    ctx,
                    node,
                    "object.__setattr__ mutates a frozen model object "
                    "outside __post_init__",
                    hint="use dataclasses.replace to derive a new instance",
                )


# ---------------------------------------------------------------------------
# RPR004 — complete annotations on the math-bearing packages
# ---------------------------------------------------------------------------


@register
class MissingAnnotationsRule(Rule):
    """Public functions in the math-bearing packages must be fully typed.

    ``core`` implements eqs. 1-7, and ``heuristics``/``genitor``/``des``
    consume them; an untyped boundary is where a period (seconds) gets
    passed where a utilization (fraction) is expected.  Every public
    function in those packages must annotate every parameter and its
    return type so ``mypy --strict`` can police the units end to end.
    """

    rule_id = "RPR004"
    summary = "public functions in core/heuristics/genitor/des fully typed"
    packages: ClassVar[tuple[str, ...]] = (
        "repro.core",
        "repro.heuristics",
        "repro.genitor",
        "repro.des",
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if not ctx.in_packages(self.packages):
            return
        yield from self._scan(ctx, ctx.tree.body, class_private=False)

    def _scan(
        self,
        ctx: ModuleInfo,
        body: list[ast.stmt],
        class_private: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                private = class_private or stmt.name.startswith("_")
                yield from self._scan(ctx, stmt.body, class_private=private)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if class_private or stmt.name.startswith("_"):
                    continue
                yield from self._check_signature(ctx, stmt)

    def _check_signature(
        self, ctx: ModuleInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        missing: list[str] = []
        for i, arg in enumerate(positional):
            if i == 0 and arg.arg in {"self", "cls"}:
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"*{star.arg}")
        if missing:
            yield self.finding(
                ctx,
                node,
                f"public function `{node.name}` missing parameter "
                f"annotations: {', '.join(missing)}",
                hint="annotate every parameter",
            )
        if node.returns is None:
            yield self.finding(
                ctx,
                node,
                f"public function `{node.name}` missing return annotation",
                hint="annotate the return type (-> None if procedural)",
            )


# ---------------------------------------------------------------------------
# RPR005 — no silent exception swallowing
# ---------------------------------------------------------------------------


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: list[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for expr in names:
        name = expr.id if isinstance(expr, ast.Name) else (
            expr.attr if isinstance(expr, ast.Attribute) else ""
        )
        if name in {"Exception", "BaseException"}:
            return True
    return False


@register
class SilentExceptionRule(Rule):
    """Swallowed exceptions turn infeasible allocations into wrong answers.

    The feasibility pipeline (eq. 4 latency check, eq. 6 utilization
    check) signals violated constraints by raising; a bare ``except:`` or
    a broad handler whose body is ``pass`` converts "this allocation is
    invalid" into "this allocation is fine".  Handlers must name the
    exception type and either act on it or re-raise.
    """

    rule_id = "RPR005"
    summary = "no bare except / silent exception swallowing"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ctx.nodes(ast.ExceptHandler):
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` catches SystemExit and hides real "
                    "failures",
                    hint="catch a specific exception type",
                )
                continue
            body_is_silent = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if body_is_silent and _catches_broadly(node):
                yield self.finding(
                    ctx,
                    node,
                    "broad exception handler silently swallows the error",
                    hint="handle, log, or re-raise",
                )


# ---------------------------------------------------------------------------
# RPR006 — __all__ hygiene in packages
# ---------------------------------------------------------------------------


#: Module-level name of a package's PEP 562 export table (name → target).
LAZY_TABLE = "_LAZY"


def lazy_table(
    tree: ast.Module,
) -> tuple[ast.stmt, dict[str, str] | None] | None:
    """The module's ``_LAZY`` assignment and its name → target map.

    ``None`` when the module has no table.  The map is ``None`` when the
    value is not a dict literal of string keys and string values, since
    such a table cannot be checked statically.
    """
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == LAZY_TABLE for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return stmt, None
        table: dict[str, str] = {}
        for key, item in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            ):
                return stmt, None
            table[key.value] = item.value
        return stmt, table
    return None


def package_submodules(init_path: str) -> frozenset[str]:
    """Direct submodule names of the package whose ``__init__`` is at
    ``init_path`` (empty when the directory cannot be listed)."""
    directory = Path(init_path).parent
    try:
        entries = list(directory.iterdir())
    except OSError:
        return frozenset()
    names: set[str] = set()
    for entry in entries:
        if entry.suffix == ".py" and entry.name != "__init__.py":
            names.add(entry.stem)
        elif (entry / "__init__.py").is_file():
            names.add(entry.name)
    return frozenset(names)


@register
class PublicApiRule(Rule):
    """``__all__`` must exist and match the names a package binds.

    The public surface of each ``repro.*`` package is its contract with
    the experiment drivers and the CLI; a re-export that drifts out of
    ``__all__`` (or a stale entry pointing at nothing) is an API change
    nobody reviewed.  Underscore-prefixed bindings stay private.

    Names in the package's ``_LAZY`` table (:mod:`repro._lazy`) count as
    bound: the package's ``__getattr__`` imports them on first access.
    The table must be a dict literal, and each entry must name an
    existing direct submodule (``".name"``), so a typo cannot hide
    behind the laziness until some caller first touches the name.
    """

    rule_id = "RPR006"
    summary = "__all__ present and consistent in every repro package"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if not ctx.is_package:
            return
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        symbols = ctx.symbols
        bound = dict(symbols.top_level)
        all_lineno = bound.pop("__all__", None)
        lazy_names: set[str] = set()
        lazy_node: ast.AST = ctx.tree
        lazy = lazy_table(ctx.tree)
        if lazy is not None:
            lazy_node, table = lazy
            if table is None:
                yield self.finding(
                    ctx,
                    lazy_node,
                    f"lazy export table `{LAZY_TABLE}` is not a dict "
                    "literal of string pairs",
                    hint="spell the table out so its targets can be checked",
                )
            else:
                yield from self._check_lazy_targets(ctx, lazy_node, table)
                lazy_names = set(table)
        declared = symbols.top_level_all
        if all_lineno is None or declared is None:
            yield self.finding(
                ctx,
                ctx.tree,
                "package __init__ does not declare __all__",
                hint="add __all__ listing the public API",
            )
            return
        exported = set(bound) | lazy_names
        public = {name for name in exported if not name.startswith("_")}
        for name in sorted(declared - exported):
            yield self.finding(
                ctx,
                anchor(all_lineno),
                f"__all__ lists `{name}` but the package never binds it",
                hint="remove the stale entry or import the name",
            )
        for name in sorted(public - declared):
            yield self.finding(
                ctx,
                anchor(bound[name]) if name in bound else lazy_node,
                f"public name `{name}` is bound but missing from __all__",
                hint="add it to __all__ or rename with a leading underscore",
            )

    def _check_lazy_targets(
        self, ctx: ModuleInfo, node: ast.AST, table: dict[str, str]
    ) -> Iterator[Finding]:
        submodules = package_submodules(ctx.path)
        for name, target in sorted(table.items()):
            module = target[1:]
            if not (target.startswith(".") and module.isidentifier()):
                yield self.finding(
                    ctx,
                    node,
                    f"lazy export `{name}` targets `{target}`, which is not "
                    "a direct submodule `.name`",
                    hint="import deeper or foreign modules eagerly, or "
                    "re-export them from a direct submodule",
                )
            elif module not in submodules:
                yield self.finding(
                    ctx,
                    node,
                    f"lazy export `{name}` names module `{target}`, which "
                    "does not exist",
                    hint="fix the target or drop the entry",
                )


# ---------------------------------------------------------------------------
# RPR007 — no unbounded blocking waits in deadline-bearing packages
# ---------------------------------------------------------------------------

_BLOCKING_METHODS = frozenset({"result", "join", "get"})


@register
class UnboundedWaitRule(Rule):
    """Deadline-bearing code must never park on an unbounded primitive.

    :mod:`repro.service` promises an answer within a per-request budget
    and :mod:`repro.experiments` enforces per-run timeouts; a
    ``future.result()``, ``thread.join()`` or ``queue.get()`` with no
    ``timeout=`` can block forever and silently void both contracts.
    Only zero-positional-argument calls are flagged, so ``d.get(key)``
    and ``", ".join(parts)`` — same attribute names, no blocking
    semantics — never false-positive.
    """

    rule_id = "RPR007"
    summary = "no unbounded .result()/.join()/.get() in service/experiments"
    packages: ClassVar[tuple[str, ...]] = (
        "repro.service",
        "repro.experiments",
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if not ctx.in_packages(self.packages):
            return
        for node in ctx.nodes(ast.Call):
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _BLOCKING_METHODS
            ):
                continue
            if node.args:
                # d.get(key), sep.join(parts): not blocking primitives
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield self.finding(
                ctx,
                node,
                f"potentially unbounded blocking `.{func.attr}()` without "
                "a timeout",
                hint="pass timeout= (derive it from the request deadline)",
            )


# ---------------------------------------------------------------------------
# RPR008 — wall-clock reads for duration measurement
# ---------------------------------------------------------------------------


@register
class WallClockTimingRule(Rule):
    """Wall-clock reads make runtime measurements non-monotonic.

    The runtime comparison (Section 6), the GA's ``evals_per_second``
    telemetry, and the service's deadline accounting all subtract two
    clock reads.  ``time.time()`` follows the *wall* clock, which NTP
    slew, manual adjustment, or DST can move backwards mid-measurement —
    producing negative durations and corrupted evals/sec.  Duration
    measurement must use the monotonic ``time.perf_counter()``;
    timestamps that genuinely need calendar time should go through
    :mod:`datetime` (and earn a ``# repro: noqa[RPR008]`` only when the
    wall clock is truly intended).
    """

    rule_id = "RPR008"
    summary = "no time.time() for duration measurement"

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            if "time.time" in ctx.qualified_names(node.func):
                yield self.finding(
                    ctx,
                    node,
                    "wall-clock `time.time()` used where a duration is "
                    "measured",
                    hint="use time.perf_counter() (monotonic) for "
                    "durations",
                )


# ---------------------------------------------------------------------------
# RPR013 — no bare process-pool construction outside repro.parallel
# ---------------------------------------------------------------------------


_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)


@register
class BarePoolConstructionRule(Rule):
    """Raw process pools bypass the supervised failure handling.

    :class:`repro.parallel.SupervisedPool` is the single place worker
    liveness, per-task deadlines, retry with backoff, poison-task
    quarantine, deterministic replay, and shared-memory cleanup are
    implemented; a bare ``ProcessPoolExecutor(...)`` or
    ``multiprocessing.Pool(...)`` constructed anywhere else silently
    reintroduces the lost-task and leaked-segment failure modes the
    supervisor absorbs (one dead worker condemns the whole stdlib pool).
    Only construction *calls* are flagged — importing the names for
    typing or isinstance checks stays legal — and only outside
    ``repro.parallel``, which is where the one sanctioned wrapper lives.
    """

    rule_id = "RPR013"
    summary = "no bare ProcessPoolExecutor/Pool outside repro.parallel"
    exempt_packages: ClassVar[tuple[str, ...]] = ("repro.parallel",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if ctx.in_packages(self.exempt_packages):
            return
        for node in ctx.nodes(ast.Call):
            qualname = self._constructed_pool(ctx, node.func)
            if qualname is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"bare `{qualname}` construction outside "
                    "repro.parallel",
                    hint="use repro.parallel.SupervisedPool (supervised "
                    "retry, deadlines, quarantine, in-process replay)",
                )

    @staticmethod
    def _constructed_pool(ctx: ModuleInfo, func: ast.expr) -> str | None:
        """Qualified name when ``func`` is a raw pool constructor."""
        return min(ctx.qualified_names(func) & _POOL_CONSTRUCTORS, default=None)


# ---------------------------------------------------------------------------
# RPR014 — no non-atomic durable writes outside the durability modules
# ---------------------------------------------------------------------------


def _write_mode(call: ast.Call, *, mode_position: int) -> str | None:
    """The write-intent mode string of an ``open``-style call, if any.

    ``mode_position`` is the positional index of the mode argument (1
    for builtin ``open(path, mode)``, 0 for ``Path.open(mode)``).  Only
    literal string modes are inspected — a computed mode is invisible
    to static analysis and stays legal.
    """
    mode: ast.expr | None = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and mode.value
        and set(mode.value) <= set("rwxab+tU")
        and any(flag in mode.value for flag in ("w", "a", "x"))
    ):
        return mode.value
    return None


@register
class DurableWriteRule(Rule):
    """Non-atomic writes can leave torn files behind a crash.

    A plain ``open(path, "w")`` (or ``json.dump`` into one, or
    ``Path.write_text``/``write_bytes``) truncates the target before
    the new bytes are durable: a crash mid-write destroys the old
    contents *and* the new.  Every durable artifact — models,
    checkpoints, snapshots — must go through
    :func:`repro.io_utils.atomic.atomic_write_text` /
    ``atomic_write_bytes`` (write-temp → fsync → ``os.replace``), or
    the framed write-ahead log in :mod:`repro.service.journal`.  Those
    two modules are the only places allowed to open files for writing;
    read-mode opens and computed mode strings are not flagged.
    """

    rule_id = "RPR014"
    summary = (
        "no non-atomic durable writes outside repro.io_utils.atomic / "
        "repro.service.journal"
    )
    exempt_modules: ClassVar[tuple[str, ...]] = (
        "repro.io_utils.atomic",
        "repro.service.journal",
    )
    _hint: ClassVar[str] = (
        "use repro.io_utils.atomic.atomic_write_text/atomic_write_bytes "
        "(write-temp, fsync, os.replace)"
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if ctx.module in self.exempt_modules:
            return
        for node in ctx.nodes(ast.Call):
            message = self._violation(ctx, node)
            if message is not None:
                yield self.finding(ctx, node, message, hint=self._hint)

    @staticmethod
    def _violation(ctx: ModuleInfo, call: ast.Call) -> str | None:
        func = call.func
        if "json.dump" in ctx.qualified_names(func):
            return "`json.dump` writes through a non-atomic handle"
        if isinstance(func, ast.Name):
            if func.id == "open":
                mode = _write_mode(call, mode_position=1)
                if mode is not None:
                    return (
                        f"non-atomic write-mode `open(..., {mode!r})`"
                    )
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in ("write_text", "write_bytes"):
            return f"non-atomic `.{func.attr}(...)` durable write"
        if func.attr == "open":
            mode = _write_mode(call, mode_position=0)
            if mode is not None:
                return f"non-atomic write-mode `.open({mode!r})`"
        return None

