"""Whole-program rules RPR009–RPR012.

These rules (``scope = "project"``, registered in the one
:data:`~repro.quality.rules.RULES` registry) read the whole
:class:`~repro.quality.project.ProjectContext` at once — the import
graph, per-module symbol tables, and the cross-module reference index —
to enforce invariants no single file can witness:

``RPR009``
    Fork/pickle safety.  Callables submitted to a
    ``ProcessPoolExecutor`` must be picklable module-level functions,
    and a worker function must not mutate module-level mutable globals
    (the parent never sees the write; under ``spawn`` each worker gets
    its own copy).  Cross-process state must flow through the sanctioned
    token registry (:mod:`repro.parallel.broadcast`), which the pool
    initializer installs in every worker.  Re-enabling writes on a
    read-only array view (``setflags(write=True)``) is likewise
    flagged: model arrays are deliberately frozen, because models and
    their derived tables are shared without copying.
``RPR010``
    RNG provenance.  Every ``np.random.default_rng`` / ``Generator``
    construction site must derive its seed from injected state — a
    parameter of an enclosing function, attributes of ``self``, another
    generator, or a module-level constant — never from OS entropy
    (no-argument construction) or wall-clock/UUID entropy sources.
    The dataflow check crosses call boundaries: call sites of
    seed-consuming functions in *other* modules are held to the same
    standard, extending RPR002 whole-program.
``RPR011``
    Layering.  The module-level import graph must be acyclic, and
    ``repro.*`` subpackages may only import strictly lower layers
    (``repro.core`` at the bottom imports nothing else; ``heuristics``
    may not import ``service``; and so on per :data:`LAYERS`).
``RPR012``
    Cross-module export consistency.  A ``from module import name``
    between project modules must name something the target actually
    binds; a package ``__init__`` re-export must be listed in the
    source module's ``__all__``; and a public top-level symbol that is
    neither exported via ``__all__`` nor referenced anywhere in the
    project (including its own module) is dead public surface.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, Mapping

from .findings import Finding
from .project import ModuleInfo, ProjectContext, SymbolTable
from .rules import Rule, anchor, is_mutable_value, lazy_table, register

__all__ = [
    "LAYERS",
    "CrossModuleExportRule",
    "ForkPickleSafetyRule",
    "LayeringRule",
    "RngProvenanceRule",
]


# ---------------------------------------------------------------------------
# RPR009 — fork/pickle safety
# ---------------------------------------------------------------------------

_EXECUTOR_NAMES = frozenset({"ProcessPoolExecutor"})
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)


def _call_simple_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _module_mutable_globals(project: ProjectContext, module: str) -> set[str]:
    """Top-level names of ``module`` bound to mutable containers."""
    info = project.modules.get(module)
    if info is None:
        return set()
    mutable: set[str] = set()
    for stmt in info.tree.body:
        value: ast.expr | None = None
        targets: list[str] = []
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            targets = [
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            ]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            value = stmt.value
            targets = [stmt.target.id]
        if value is not None and is_mutable_value(value):
            mutable.update(targets)
    return mutable


def _worker_global_writes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, mutable_globals: set[str]
) -> Iterator[tuple[ast.AST, str]]:
    """Yield (node, name) for module-global mutations inside ``fn``."""
    declared_global: set[str] = set()
    local_names: set[str] = {a.arg for a in ast.walk(fn) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        yield node, target.id
                    else:
                        local_names.add(target.id)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in mutable_globals and name not in local_names:
                        yield node, name
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
            ):
                name = func.value.id
                if name in mutable_globals and name not in local_names:
                    yield node, name


@register
class ForkPickleSafetyRule(Rule):
    """Work shipped to a process pool must be fork/pickle safe.

    Three violations, all invisible to a single-file linter:

    * a lambda or nested function submitted to a
      ``ProcessPoolExecutor`` (unpicklable under the ``spawn`` start
      method; silently captures parent state under ``fork``);
    * a submitted worker function — resolved across module boundaries —
      that mutates a module-level mutable global: the write lands in
      the *worker's* copy and the parent never observes it, so the
      program is wrong under every start method;
    * ``array.setflags(write=True)``, which re-enables writes on a
      read-only view — the guard that keeps code from corrupting a
      model whose arrays are shared without copying.

    The token registry (:mod:`repro.parallel.broadcast`) is the one
    sanctioned home for cross-process module state and is exempt.
    """

    rule_id = "RPR009"
    summary = "process-pool work must be picklable and side-effect free"
    scope = "project"
    exempt_modules: ClassVar[tuple[str, ...]] = ("repro.parallel.broadcast",)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.modules):
            yield from self._check_module(project, module)

    def _check_module(
        self, project: ProjectContext, module: str
    ) -> Iterator[Finding]:
        info = project.modules[module]
        executors = self._executor_names(info)
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
            *info.nodes(ast.FunctionDef),
            *info.nodes(ast.AsyncFunctionDef),
        ]
        nested = {fn.name for fn in functions if info.scopes_of(fn)}
        for node in info.nodes(ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setflags"
                and module not in self.exempt_modules
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
            ):
                yield self.finding(
                    info,
                    node,
                    "setflags(write=True) re-enables writes on a read-only "
                    "view (model arrays are deliberately frozen)",
                    hint="copy the array instead of unfreezing the view",
                )
                continue
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in ("submit", "map")
                or not isinstance(func.value, ast.Name)
                or func.value.id not in executors
                or not node.args
            ):
                continue
            submitted = node.args[0]
            if isinstance(submitted, ast.Lambda):
                yield self.finding(
                    info,
                    submitted,
                    "lambda submitted to a process pool is not picklable "
                    "under spawn and captures parent state under fork",
                    hint="submit a module-level function",
                )
                continue
            if isinstance(submitted, ast.Name):
                if submitted.id in nested:
                    yield self.finding(
                        info,
                        submitted,
                        f"nested function `{submitted.id}` submitted to a "
                        "process pool is not picklable under spawn",
                        hint="hoist the worker to module level",
                    )
                    continue
                yield from self._check_worker(project, module, submitted.id)

    def _check_worker(
        self,
        project: ProjectContext,
        module: str,
        name: str,
    ) -> Iterator[Finding]:
        resolved = project.resolve_function(module, name)
        if resolved is None:
            return
        def_module, fn = resolved
        if def_module in self.exempt_modules:
            return
        mutable = _module_mutable_globals(project, def_module)
        for node, global_name in _worker_global_writes(fn, mutable):
            yield self.finding(
                project.modules[def_module],
                node,
                f"worker `{fn.name}` mutates module global "
                f"`{global_name}`; the write stays in the worker process "
                "and the parent never sees it",
                hint="return the data, or use the repro.parallel.broadcast "
                "registry",
            )

    @staticmethod
    def _executor_names(info: ModuleInfo) -> set[str]:
        """Local names bound to ``ProcessPoolExecutor(...)`` instances."""

        def ctor_name(value: ast.expr) -> str:
            return _call_simple_name(value) if isinstance(value, ast.Call) else ""

        names = {
            target.id
            for node in info.nodes(ast.Assign)
            if ctor_name(node.value) in _EXECUTOR_NAMES
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        names.update(
            item.optional_vars.id
            for item in info.nodes(ast.withitem)
            if ctor_name(item.context_expr) in _EXECUTOR_NAMES
            and isinstance(item.optional_vars, ast.Name)
        )
        return names


# ---------------------------------------------------------------------------
# RPR010 — RNG provenance across call boundaries
# ---------------------------------------------------------------------------

_GENERATOR_CTORS = frozenset({"default_rng", "Generator"})
_ENTROPY_CALLS = frozenset(
    {"time", "time_ns", "urandom", "uuid1", "uuid4", "getrandbits", "token_bytes"}
)
_ENTROPY_MODULES = frozenset({"secrets", "uuid", "os", "time"})


def _entropy_call(node: ast.expr) -> ast.Call | None:
    """First wall-clock/OS-entropy call inside ``node``, if any."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr in _ENTROPY_CALLS:
            base = func.value
            if isinstance(base, ast.Name) and base.id in _ENTROPY_MODULES:
                return sub
        elif isinstance(func, ast.Name) and func.id in _ENTROPY_CALLS:
            return sub
    return None


def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    for star in (args.vararg, args.kwarg):
        if star is not None:
            names.add(star.arg)
    return names


def _local_assignments(
    scopes: tuple[ast.FunctionDef | ast.AsyncFunctionDef, ...],
) -> dict[str, list[ast.expr]]:
    """Name -> assigned expressions across the enclosing scopes."""
    assigned: dict[str, list[ast.expr]] = {}
    for fn in scopes:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    assigned.setdefault(node.target.id, []).append(node.value)
    return assigned


def _seed_roots(expr: ast.expr) -> set[str]:
    """Free ``Name`` roots of a seed expression."""
    roots: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            roots.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                roots.add(base.id)
    return roots


@register
class RngProvenanceRule(Rule):
    """Every generator must trace back to an injected seed stream.

    RPR002 bans *ambient* randomness inside one file; this rule extends
    the guarantee across call boundaries.  At every
    ``np.random.default_rng(...)`` / ``Generator(...)`` construction
    site the seed expression must be *injected*: its name roots must
    reach an enclosing function's parameter, ``self``/``cls`` state, or
    a module-level constant — possibly through local assignments —
    and must not contain an entropy source (``time.time()``,
    ``os.urandom``, ``uuid4``, …).  Zero-argument construction seeds
    from OS entropy and is always flagged.

    The cross-module half: a function whose parameter feeds a generator
    is a *seed-consuming* function; every resolvable call site of such
    a function in the project is checked for entropy-source arguments,
    so ``run_trials(seed=time.time())`` two modules away from the
    ``default_rng`` call is still caught.
    """

    rule_id = "RPR010"
    summary = "generator construction must trace to an injected seed"
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        # (module, function name) -> parameter names that feed a generator
        seed_params: dict[tuple[str, str], set[str]] = {}
        for module in sorted(project.modules):
            yield from self._check_construction_sites(
                project, module, seed_params
            )
        yield from self._check_call_sites(project, seed_params)

    # -- construction sites ----------------------------------------------------

    def _check_construction_sites(
        self,
        project: ProjectContext,
        module: str,
        seed_params: dict[tuple[str, str], set[str]],
    ) -> Iterator[Finding]:
        info = project.modules[module]
        for call in info.nodes(ast.Call):
            if _call_simple_name(call) not in _GENERATOR_CTORS:
                continue
            if not call.args and not call.keywords:
                yield self.finding(
                    info,
                    call,
                    "generator constructed with no seed draws OS entropy "
                    "and breaks deterministic replay",
                    hint="thread an injected seed or Generator through",
                )
                continue
            seed_expr = call.args[0] if call.args else call.keywords[0].value
            entropy = _entropy_call(seed_expr)
            if entropy is not None:
                yield self.finding(
                    info,
                    call,
                    f"generator seeded from entropy source "
                    f"`{ast.unparse(entropy.func)}()`",
                    hint="derive the seed from the injected seed stream",
                )
                continue
            scopes = info.scopes_of(call)
            params: set[str] = set()
            for fn in scopes:
                params |= _params_of(fn)
            assigned = _local_assignments(scopes)
            ok, via_params = self._provenance_ok(
                seed_expr, params, assigned, info.symbols
            )
            if not ok:
                yield self.finding(
                    info,
                    call,
                    "generator seed does not derive from a parameter, "
                    "self state, or module constant",
                    hint="inject the seed (extend the function signature) "
                    "instead of minting one locally",
                )
                continue
            if scopes and via_params:
                key = (module, scopes[0].name)
                seed_params.setdefault(key, set()).update(
                    via_params & _params_of(scopes[0])
                )

    def _provenance_ok(
        self,
        expr: ast.expr,
        params: set[str],
        assigned: dict[str, list[ast.expr]],
        table: SymbolTable,
    ) -> tuple[bool, set[str]]:
        """Whether every name root of ``expr`` reaches injected state.

        Returns ``(ok, parameter_roots)``.  Module-level bindings count
        as constants; a purely-literal seed (no roots at all) also
        passes — it is deterministic, and hard-coding policy belongs to
        call-site review, not the provenance check.
        """
        roots = _seed_roots(expr)
        via_params: set[str] = set()
        pending = list(roots)
        seen: set[str] = set()
        while pending:
            root = pending.pop()
            if root in seen:
                continue
            seen.add(root)
            if root in params or root in ("self", "cls"):
                via_params.add(root)
                continue
            exprs = assigned.get(root)
            if exprs is not None:
                for sub in exprs:
                    if _entropy_call(sub) is not None:
                        return False, via_params
                    pending.extend(_seed_roots(sub))
                continue
            if table.binds(root):
                continue  # module-level constant or imported name
            # anything else (builtins, loop targets) contributes no
            # provenance but does not taint the seed either
        return True, via_params

    # -- call sites of seed-consuming functions --------------------------------

    def _check_call_sites(
        self,
        project: ProjectContext,
        seed_params: dict[tuple[str, str], set[str]],
    ) -> Iterator[Finding]:
        if not seed_params:
            return
        for module in sorted(project.modules):
            info = project.modules[module]
            for node in info.nodes(ast.Call):
                callee = node.func
                if not isinstance(callee, ast.Name):
                    continue
                resolved = project.resolve_function(module, callee.id)
                if resolved is None:
                    continue
                def_module, fn = resolved
                params = seed_params.get((def_module, fn.name))
                if not params:
                    continue
                for arg in self._bound_arguments(fn, node, params):
                    entropy = _entropy_call(arg)
                    if entropy is not None:
                        yield self.finding(
                            info,
                            node,
                            f"entropy source "
                            f"`{ast.unparse(entropy.func)}()` passed as the "
                            f"seed stream of `{fn.name}` "
                            f"({def_module})",
                            hint="pass a deterministic seed derived from "
                            "the experiment's base seed",
                        )

    @staticmethod
    def _bound_arguments(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        call: ast.Call,
        params: set[str],
    ) -> Iterator[ast.expr]:
        """Call arguments bound to the given parameter names."""
        positional = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
        for i, arg in enumerate(call.args):
            if i < len(positional) and positional[i] in params:
                yield arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                yield kw.value


# ---------------------------------------------------------------------------
# RPR011 — layering and import cycles
# ---------------------------------------------------------------------------

#: Layer rank of each ``repro.*`` subpackage (lower = more fundamental).
#: A module may import only strictly lower-ranked subpackages.
LAYERS: dict[str, int] = {
    "core": 0,
    "_lazy": 0,
    "_version": 0,
    "analysis": 1,
    "des": 1,
    "genitor": 1,
    "lp": 1,
    "parallel": 1,
    "robustness": 1,
    "workload": 1,
    "heuristics": 2,
    "quality": 2,
    "dynamic": 3,
    "io_utils": 3,
    "faults": 4,
    "fleet": 4,
    "experiments": 5,
    "service": 6,
    "cli": 7,
    "__main__": 8,
}


@register
class LayeringRule(Rule):
    """The import graph must be acyclic and respect the layer map.

    Two checks over the runtime module-scope import graph
    (``TYPE_CHECKING`` and function-scope imports are excluded — those
    are the sanctioned mechanisms for type-only and lazy references):

    * **cycles** — every strongly connected component of more than one
      module is reported once, anchored at its first module;
    * **forbidden edges** — within the root ``repro`` package, a module
      of subpackage X may import subpackage Y only when
      ``LAYERS[Y] < LAYERS[X]``.  In particular ``repro.core``, the
      bottom layer implementing eqs. 1–7, may import nothing above it,
      so the feasibility math stays embeddable in any worker process
      without dragging in heuristics, services, or experiment drivers.

    Subpackages absent from :data:`LAYERS` are exempt from the rank
    check (new packages opt in by taking a rank) but still participate
    in cycle detection.
    """

    rule_id = "RPR011"
    summary = "no import cycles; repro layers import strictly downward"
    scope = "project"
    root_package: ClassVar[str] = "repro"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.import_graph()
        yield from self._check_cycles(project, graph)
        yield from self._check_layers(project, graph)

    def _check_cycles(
        self,
        project: ProjectContext,
        graph: Mapping[str, frozenset[str]],
    ) -> Iterator[Finding]:
        adjacency = {m: set(graph[m]) for m in project.modules}
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            ordered = sorted(component)
            anchor_module = ordered[0]
            anchor = self._import_node(
                project, anchor_module, set(component)
            )
            cycle = " -> ".join(ordered + [ordered[0]])
            yield self.finding(
                project.modules[anchor_module],
                anchor,
                f"import cycle: {cycle}",
                hint="break the cycle (move shared code down a layer or "
                "defer one import into the function that needs it)",
            )

    def _check_layers(
        self,
        project: ProjectContext,
        graph: Mapping[str, frozenset[str]],
    ) -> Iterator[Finding]:
        prefix = self.root_package + "."
        for module in sorted(project.modules):
            if not module.startswith(prefix):
                continue
            src_pkg = module[len(prefix):].split(".")[0]
            src_rank = LAYERS.get(src_pkg)
            if src_rank is None:
                continue
            for target in sorted(graph[module]):
                if not target.startswith(prefix):
                    continue
                dst_pkg = target[len(prefix):].split(".")[0]
                if dst_pkg == src_pkg:
                    continue
                dst_rank = LAYERS.get(dst_pkg)
                if dst_rank is None or dst_rank < src_rank:
                    continue
                anchor = self._import_node(project, module, {target})
                yield self.finding(
                    project.modules[module],
                    anchor,
                    f"forbidden layering edge: `{module}` "
                    f"(layer {src_rank}, {src_pkg}) imports `{target}` "
                    f"(layer {dst_rank}, {dst_pkg})",
                    hint="layers import strictly downward; move the shared "
                    "code below both packages or invert the dependency",
                )

    @staticmethod
    def _import_node(
        project: ProjectContext, module: str, targets: set[str]
    ) -> ast.AST:
        """The import statement in ``module`` that creates the edge."""
        for rec in project.modules[module].imports:
            if not rec.module_scope or rec.type_checking:
                continue
            resolved = project.resolve_target(rec.target)
            if resolved is None and rec.name is not None:
                resolved = project.resolve_target(f"{rec.target}.{rec.name}")
            if resolved in targets:
                return anchor(rec.lineno, rec.col)
        return project.modules[module].tree


def _strongly_connected(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative (deep module chains must not recurse)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[list[str]] = []
    for start in adjacency:
        if start in index:
            continue
        work: list[tuple[str, list[str], int]] = [
            (start, sorted(adjacency.get(start, ())), 0)
        ]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, edges, i = work.pop()
            advanced = False
            while i < len(edges):
                nxt = edges[i]
                i += 1
                if nxt not in adjacency:
                    continue
                if nxt not in index:
                    work.append((node, edges, i))
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(adjacency.get(nxt, ())), 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


# ---------------------------------------------------------------------------
# RPR012 — cross-module export consistency
# ---------------------------------------------------------------------------


@register
class CrossModuleExportRule(Rule):
    """Exports must exist, agree across modules, and earn their keep.

    Three cross-module checks (RPR006 polices each ``__init__`` in
    isolation; this rule closes the gaps between files):

    * **stale import** — ``from project.module import name`` where the
      target module binds no such name (submodules and PEP 562
      ``__getattr__`` modules are respected), and likewise a package's
      ``_LAZY`` entry whose target submodule does not bind the name;
    * **re-export drift** — a package ``__init__`` re-exports a name in
      its ``__all__`` whose source module declares an ``__all__`` that
      omits it: the symbol is public at the package surface but private
      at home, so the two contracts disagree;
    * **dead public surface** — a public top-level symbol of a
      non-``__init__`` module that is not in the module's ``__all__``,
      is referenced by no other module, and is not even used inside its
      own module.  Either it is API (export it) or it is not (prefix an
      underscore or delete it).
    """

    rule_id = "RPR012"
    summary = "cross-module __all__/re-export consistency, no dead exports"
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        references = project.references()
        for module in sorted(project.modules):
            info = project.modules[module]
            table = info.symbols
            # -- stale imports & re-export drift --------------------------
            for rec in info.imports:
                if rec.name is None or rec.name == "*":
                    continue
                target = project.resolve_target(rec.target)
                if target is None or target == module:
                    continue
                if f"{rec.target}.{rec.name}" in project.modules:
                    continue  # submodule import
                if target != rec.target:
                    # `from package import name`: the name may be a
                    # submodule attribute bound at import time.
                    if f"{target}.{rec.name}" in project.modules:
                        continue
                target_table = project.modules[target].symbols
                import_node = anchor(rec.lineno, rec.col)
                if not target_table.binds(rec.name):
                    yield self.finding(
                        info,
                        import_node,
                        f"`from {target} import {rec.name}` names a symbol "
                        "the target module never binds",
                        hint="fix the import or define/export the symbol",
                    )
                    continue
                if (
                    info.is_package
                    and table.declared_all is not None
                    and rec.alias in table.declared_all
                    and not rec.alias.startswith("_")
                    and target_table.declared_all is not None
                    and rec.name not in target_table.declared_all
                ):
                    yield self.finding(
                        info,
                        import_node,
                        f"package re-exports `{rec.alias}` but "
                        f"`{target}.__all__` omits `{rec.name}`: the "
                        "public surfaces disagree",
                        hint=f"add `{rec.name}` to {target}.__all__ or stop "
                        "re-exporting it",
                    )
            yield from self._check_lazy_exports(project, module)
            # -- dead public surface --------------------------------------
            # Packages re-export by design; modules outside any package
            # (scripts, test scratch files) have no cross-module public
            # contract to police.
            if info.is_package or "." not in module:
                continue
            declared = table.declared_all or frozenset()
            used_here = project.used_names(module)
            referenced = references.get(module, frozenset())
            for name, lineno in sorted(table.bindings.items()):
                if name.startswith("_") or name in declared:
                    continue
                if name in referenced or name in used_here:
                    continue
                yield self.finding(
                    info,
                    anchor(lineno),
                    f"public symbol `{name}` is not exported via __all__, "
                    "not referenced by any other module, and unused here: "
                    "dead public surface",
                    hint="export it, rename it with a leading underscore, "
                    "or delete it",
                )

    def _check_lazy_exports(
        self, project: ProjectContext, module: str
    ) -> Iterator[Finding]:
        """Attribute entries of a package's ``_LAZY`` table must resolve.

        RPR006 checks that each target submodule exists; this closes the
        cross-module half: the submodule must bind the exported name.
        """
        info = project.modules[module]
        lazy = lazy_table(info.tree) if info.is_package else None
        if lazy is None:
            return
        node, table = lazy
        if table is None:
            return
        for name, target in sorted(table.items()):
            source = f"{module}{target}"
            if target == f".{name}" or source not in project.modules:
                continue
            if not project.modules[source].symbols.binds(name):
                yield self.finding(
                    info,
                    node,
                    f"lazy export `{name}` names `{source}`, which never "
                    "binds it",
                    hint="fix the table entry or define the symbol",
                )

