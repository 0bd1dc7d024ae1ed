"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports a heavy submodule eagerly makes every importer
pay for it: ``import repro.service`` used to load scipy because
``repro/__init__`` imported all of its subpackages.  Instead, a
package lists such exports in a module-level ``_LAZY`` table and
forwards its ``__getattr__`` / ``__dir__`` here::

    _LAZY = {
        "fig2": ".fig2",          # the submodule itself
        "run_fig2": ".fig2",      # an attribute of it
    }

    def __getattr__(name: str) -> Any:
        return _lazy.load(__name__, _LAZY, name)

    def __dir__() -> list[str]:
        return _lazy.names(globals(), _LAZY)

Each entry maps a public name to the relative submodule that provides
it.  An entry whose target is ``"." + name`` is that submodule; any other
entry is the attribute ``name`` of its target.  The first access imports
the target and caches the value in the package namespace, so later
lookups never reach ``__getattr__`` again.  Lint rule RPR006 checks that
every target module exists and counts the table's keys as bound names.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping

__all__ = ["load", "names"]


def load(package: str, table: Mapping[str, str], name: str) -> Any:
    """Import and return the lazy export ``name`` of ``package``."""
    target = table.get(name)
    if target is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    module = importlib.import_module(target, package)
    value = module if target == f".{name}" else getattr(module, name)
    setattr(sys.modules[package], name, value)
    return value


def names(namespace: Mapping[str, Any], table: Mapping[str, str]) -> list[str]:
    """``dir()`` of a package: its bound names plus its lazy exports."""
    return sorted(set(namespace) | set(table))
