"""Parsed modules and the whole-program context the lint rules read.

Every file the engine lints is parsed exactly once into a
:class:`ModuleInfo`.  Each module lazily derives:

* its import records (:attr:`ModuleInfo.imports`), at every scope —
  runtime module-level imports are distinguished from function-scope
  and ``TYPE_CHECKING``-only ones;
* an alias resolver over those records
  (:meth:`ModuleInfo.qualified_names`), which tells a file rule that
  ``np.random.rand`` or a bare ``rand`` means ``numpy.random.rand``;
* its top-level :class:`SymbolTable` (bindings, ``__all__``);
* one index of its nodes by AST type (:meth:`ModuleInfo.nodes`), each
  with its chain of enclosing functions (:meth:`ModuleInfo.scopes_of`),
  built by the one whole-tree walk any rule makes of the module.

:class:`ProjectContext` holds every parsed module of one run and derives
the module-level import graph, a cross-module reference index (which
names of module X other modules actually use), and a lightweight
call/def-use resolver (:meth:`ProjectContext.resolve_function`) that
follows ``from`` imports across module boundaries.  Every rule runs
once over it (see :meth:`repro.quality.rules.Rule.check_project`).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, cast

__all__ = [
    "ImportRecord",
    "ModuleInfo",
    "ProjectContext",
    "SymbolTable",
    "string_elements",
]

_N = TypeVar("_N", bound=ast.AST)

#: The nodes that open a function scope in :meth:`ModuleInfo.scopes_of`.
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_Scopes = tuple[ast.FunctionDef | ast.AsyncFunctionDef, ...]


@dataclass(frozen=True)
class ImportRecord:
    """One import statement binding, resolved to a dotted target.

    ``target`` is the dotted module the import reaches into (relative
    imports are resolved against the importing module); ``name`` is the
    imported symbol for ``from target import name`` and ``None`` for a
    plain ``import target``; ``alias`` is the local name bound.
    """

    target: str
    name: str | None
    alias: str
    lineno: int
    col: int
    module_scope: bool
    type_checking: bool


@dataclass(frozen=True)
class SymbolTable:
    """Top-level symbol information of one module.

    ``bindings`` maps names defined *in* the module (functions, classes,
    assignments — not imports) to their first line; ``import_bindings``
    maps names bound by top-level imports to theirs.  Both count
    bindings nested in top-level ``if``/``try`` blocks.  ``top_level``
    maps every name (``__all__`` and imports included) bound by a
    statement directly in the module body to the line of its *last*
    such binding.  ``declared_all`` is the module's ``__all__`` as last
    assigned anywhere (``None`` when not declared), ``top_level_all`` as
    last assigned directly in the body.  ``has_module_getattr`` marks
    modules with a PEP 562 ``__getattr__`` whose exports cannot be
    resolved statically.  Star imports bind no name.
    """

    bindings: Mapping[str, int]
    import_bindings: Mapping[str, int]
    top_level: Mapping[str, int]
    declared_all: frozenset[str] | None
    top_level_all: frozenset[str] | None
    all_lineno: int
    has_module_getattr: bool

    def binds(self, name: str) -> bool:
        return (
            name in self.bindings
            or name in self.import_bindings
            or self.has_module_getattr
        )


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file: everything a rule may inspect about it.

    ``module`` is the dotted module name (empty for an anonymous source
    string) and ``is_package`` marks a package ``__init__``.  The import
    records, their resolver, the symbol table and the node index are
    derived on first use and cached.  Rules read the tree through
    :meth:`nodes` and :meth:`scopes_of` rather than walking it again.
    """

    path: str
    module: str
    is_package: bool
    tree: ast.Module
    source: str

    def in_packages(self, packages: tuple[str, ...]) -> bool:
        """Whether this module lives under any of the dotted ``packages``."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    @cached_property
    def imports(self) -> tuple[ImportRecord, ...]:
        """Every import binding of the module, at every scope."""
        return _collect_imports(self)

    @cached_property
    def symbols(self) -> SymbolTable:
        """The module's top-level :class:`SymbolTable`."""
        return _symbol_table(self)

    @cached_property
    def _index(
        self,
    ) -> tuple[dict[type[ast.AST], list[ast.AST]], dict[ast.AST, _Scopes]]:
        """The one walk of the tree: nodes by type, and their scopes."""
        by_type: dict[type[ast.AST], list[ast.AST]] = {}
        scopes: dict[ast.AST, _Scopes] = {}
        todo: deque[tuple[ast.AST, _Scopes]] = deque([(self.tree, ())])
        while todo:  # breadth first, in ast.walk order
            node, chain = todo.popleft()
            by_type.setdefault(type(node), []).append(node)
            scopes[node] = chain
            if isinstance(node, _FUNCTIONS):
                chain = (*chain, node)
            todo.extend((child, chain) for child in ast.iter_child_nodes(node))
        return by_type, scopes

    def nodes(self, node_type: type[_N]) -> Sequence[_N]:
        """Every node of the concrete AST type ``node_type``, in
        ``ast.walk`` order."""
        return cast("list[_N]", self._index[0].get(node_type, []))

    def scopes_of(self, node: ast.AST) -> _Scopes:
        """The functions enclosing ``node``, outermost first.

        A ``def``'s decorators, defaults and annotations count as inside
        it, as does everything in a class nested in it.  Class bodies and
        lambdas open no scope of their own.
        """
        return self._index[1][node]

    @cached_property
    def _aliases(self) -> Mapping[str, frozenset[str]]:
        """Local name -> the dotted names its imports bind it to."""
        aliases: dict[str, set[str]] = {}
        for rec in self.imports:
            if rec.name == "*":
                continue
            if rec.name is not None:
                qualified = f"{rec.target}.{rec.name}"
            elif rec.alias == rec.target.partition(".")[0]:
                qualified = rec.alias  # `import a.b` binds `a`
            else:
                qualified = rec.target  # `import a.b as m` binds `a.b`
            aliases.setdefault(rec.alias, set()).add(qualified)
        return {name: frozenset(names) for name, names in aliases.items()}

    def qualified_names(self, expr: ast.expr) -> frozenset[str]:
        """Dotted names ``expr`` may denote through the module's imports.

        After ``import numpy as np``, ``np.random.rand`` gives
        ``numpy.random.rand``; after ``from numpy.random import rand``, a
        bare ``rand`` gives the same.  Imports at every scope count, and
        a name bound by several imports gives one name per target.  Empty
        when ``expr`` is not a dotted name rooted in an imported name.
        """
        attrs: list[str] = []
        while isinstance(expr, ast.Attribute):
            attrs.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return frozenset()
        suffix = "".join(f".{attr}" for attr in reversed(attrs))
        return frozenset(
            qualified + suffix for qualified in self._aliases.get(expr.id, ())
        )



def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Dotted target of an ``ImportFrom`` seen from ``module``."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    if node.level > 1:
        base = base[: len(base) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _nested_blocks(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    """The statement lists nested in ``stmt``, in source order."""
    yield getattr(stmt, "body", [])
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body
    for case in getattr(stmt, "cases", ()):
        yield case.body
    yield getattr(stmt, "orelse", [])
    yield getattr(stmt, "finalbody", [])


def _collect_imports(info: ModuleInfo) -> tuple[ImportRecord, ...]:
    records: list[ImportRecord] = []

    def visit(
        stmts: Iterable[ast.stmt], module_scope: bool, type_checking: bool
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    records.append(
                        ImportRecord(
                            target=alias.name,
                            name=None,
                            alias=alias.asname or alias.name.split(".")[0],
                            lineno=stmt.lineno,
                            col=stmt.col_offset,
                            module_scope=module_scope,
                            type_checking=type_checking,
                        )
                    )
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module == "__future__":
                    continue
                target = resolve_relative(info.module, info.is_package, stmt)
                for alias in stmt.names:
                    records.append(
                        ImportRecord(
                            target=target,
                            name=alias.name,
                            alias=alias.asname or alias.name,
                            lineno=stmt.lineno,
                            col=stmt.col_offset,
                            module_scope=module_scope,
                            type_checking=type_checking,
                        )
                    )
            elif isinstance(stmt, ast.If):
                tc = type_checking or _is_type_checking_test(stmt.test)
                visit(stmt.body, module_scope, tc)
                visit(stmt.orelse, module_scope, type_checking)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(stmt.body, False, type_checking)
            else:
                # try / with / for / while / match: same scope, every block
                for block in _nested_blocks(stmt):
                    visit(block, module_scope, type_checking)

    visit(info.tree.body, True, False)
    return tuple(records)


def string_elements(node: ast.expr | None) -> frozenset[str]:
    """The string literals of a list or tuple display (``__all__``)."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return frozenset(
            elt.value
            for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        )
    return frozenset()


def _symbol_table(info: ModuleInfo) -> SymbolTable:
    bindings: dict[str, int] = {}
    import_bindings: dict[str, int] = {}
    top_level: dict[str, int] = {}
    declared: frozenset[str] | None = None
    top_declared: frozenset[str] | None = None
    all_lineno = 1
    has_getattr = False

    def visit(stmts: Iterable[ast.stmt], top: bool) -> None:
        nonlocal declared, top_declared, all_lineno, has_getattr
        for stmt in stmts:
            defined: list[str] = []
            imported: list[str] = []
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets: list[ast.expr] = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
                if "__all__" in defined:
                    declared = string_elements(stmt.value)
                    all_lineno = stmt.lineno
                    defined = []
                    if top:
                        top_declared = declared
                        top_level["__all__"] = stmt.lineno
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if stmt.name == "__getattr__":
                    has_getattr = True
                defined = [stmt.name]
            elif isinstance(stmt, ast.Import):
                imported = [
                    alias.asname or alias.name.split(".")[0]
                    for alias in stmt.names
                ]
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module != "__future__":
                    imported = [
                        alias.asname or alias.name
                        for alias in stmt.names
                        if alias.name != "*"
                    ]
            elif isinstance(stmt, (ast.If, ast.Try)):
                for block in _nested_blocks(stmt):
                    visit(block, False)
            for name in defined:
                bindings.setdefault(name, stmt.lineno)
            for name in imported:
                import_bindings.setdefault(name, stmt.lineno)
            if top:
                for name in defined + imported:
                    top_level[name] = stmt.lineno

    visit(info.tree.body, True)
    return SymbolTable(
        bindings=bindings,
        import_bindings=import_bindings,
        top_level=top_level,
        declared_all=declared,
        top_level_all=top_declared,
        all_lineno=all_lineno,
        has_module_getattr=has_getattr,
    )


class ProjectContext:
    """Every parsed module of one lint run, and what rules derive from it.

    ``files`` keeps every parsed file in discovery order; file rules
    check each one.  ``modules`` indexes them by dotted name for the
    whole-program rules.  Later files win on a duplicate name (a file
    outside any package resolves to its bare stem; colliding stems are
    rare and the project rules only reason about package-qualified
    modules anyway).  The derived indexes (import graph, reference
    index, per-module name uses) are computed lazily and cached.
    """

    def __init__(self, files: Iterable[ModuleInfo]) -> None:
        self.files: tuple[ModuleInfo, ...] = tuple(files)
        self.modules: dict[str, ModuleInfo] = {
            info.module: info for info in self.files
        }
        self._graph: dict[str, frozenset[str]] | None = None
        self._references: dict[str, frozenset[str]] | None = None
        self._used: dict[str, frozenset[str]] = {}

    # -- resolution helpers ----------------------------------------------------

    def resolve_target(self, target: str) -> str | None:
        """Project module a dotted import target lands in, if any.

        ``from repro.core.state import AllocationState`` resolves to
        ``repro.core.state``; ``import repro.core`` to ``repro.core``.
        A ``from``-import whose target is itself outside the project
        resolves to ``None``.
        """
        if target in self.modules:
            return target
        parent = target.rpartition(".")[0]
        return parent if parent in self.modules else None

    def import_graph(self) -> Mapping[str, frozenset[str]]:
        """Runtime module-scope import edges between project modules.

        ``TYPE_CHECKING``-guarded and function-scope imports are
        excluded: they cannot create an import-time cycle and they do
        not couple layers at runtime start-up.
        """
        graph = self._graph
        if graph is None:
            graph = {}
            for name, info in self.modules.items():
                edges: set[str] = set()
                for rec in info.imports:
                    if not rec.module_scope or rec.type_checking:
                        continue
                    # `from pkg import submodule` couples the importer to
                    # the *submodule*, not the package __init__ (which
                    # every submodule import touches anyway — counting it
                    # would make each package trivially cyclic with its
                    # children).
                    resolved: str | None = None
                    if rec.name is not None:
                        full = f"{rec.target}.{rec.name}"
                        if full in self.modules:
                            resolved = full
                    if resolved is None:
                        resolved = self.resolve_target(rec.target)
                    if resolved is not None and resolved != name:
                        edges.add(resolved)
                graph[name] = frozenset(edges)
            self._graph = graph
        return graph

    def references(self) -> Mapping[str, frozenset[str]]:
        """Cross-module def-use index: module -> names others reach into.

        A name of module X counts as referenced when another project
        module imports it (``from X import name``, any scope) or
        accesses it as an attribute through an alias of X
        (``import X as x; x.name``).
        """
        refs = self._references
        if refs is None:
            acc: dict[str, set[str]] = {name: set() for name in self.modules}
            for name, info in self.modules.items():
                # local alias -> project module it denotes
                alias_of: dict[str, str] = {}
                for rec in info.imports:
                    if rec.name is None:
                        if rec.target in self.modules:
                            # `import a.b.c` binds `a`, but attribute
                            # chains start from the full dotted path;
                            # `import a.b.c as m` binds the target.
                            alias_of[rec.alias] = rec.target
                        continue
                    full = f"{rec.target}.{rec.name}"
                    if full in self.modules:
                        alias_of[rec.alias] = full
                        continue
                    resolved = self.resolve_target(rec.target)
                    if resolved is not None and resolved != name:
                        acc[resolved].add(rec.name)
                for node in info.nodes(ast.Attribute):
                    if isinstance(node.value, ast.Name):
                        target = alias_of.get(node.value.id)
                        if target is not None and target != name:
                            acc[target].add(node.attr)
            refs = {name: frozenset(used) for name, used in acc.items()}
            self._references = refs
        return refs

    def used_names(self, module: str) -> frozenset[str]:
        """Every ``Name`` loaded anywhere inside ``module`` itself."""
        cached = self._used.get(module)
        if cached is None:
            info = self.modules[module]
            cached = frozenset(
                node.id
                for node in info.nodes(ast.Name)
                if isinstance(node.ctx, ast.Load)
            )
            self._used[module] = cached
        return cached

    def resolve_function(
        self, module: str, name: str, max_hops: int = 4
    ) -> tuple[str, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        """Find the def of ``name`` as seen from ``module``.

        Looks for a top-level function definition in ``module`` itself,
        then follows ``from``-import aliases across project modules
        (re-export chains) for up to ``max_hops`` hops.
        """
        seen: set[tuple[str, str]] = set()
        current_module, current_name = module, name
        for _ in range(max_hops):
            if (current_module, current_name) in seen:
                return None
            seen.add((current_module, current_name))
            info = self.modules.get(current_module)
            if info is None:
                return None
            for stmt in info.tree.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == current_name
                ):
                    return current_module, stmt
            hop: tuple[str, str] | None = None
            for rec in info.imports:
                if rec.alias != current_name or rec.name is None:
                    continue
                resolved = self.resolve_target(rec.target)
                if resolved is not None:
                    hop = (resolved, rec.name)
                    break
            if hop is None:
                return None
            current_module, current_name = hop
        return None
