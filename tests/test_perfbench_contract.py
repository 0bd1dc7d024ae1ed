"""The names ``perfbench/tracing.py`` wraps must keep resolving.

The benchmark's traced run wraps library names where their callers look
them up, including ``repro.core.state_soa.SoaAllocationState`` and
``repro.core.state_jit.HAVE_NUMBA``, which now exist only for it, and
``repro.parallel.broadcast.SharedModelGroup.__enter__``, the span behind
``parallel.broadcast_s``.  This test installs and uninstalls the tracer,
so removing or renaming one of those names (or ``restore``) fails here
rather than in the benchmark.  It reads
``perfbench/`` and never modifies it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.state import AllocationState
from repro.core.state_soa import SoaAllocationState
from repro.parallel.broadcast import SharedModelGroup

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", _TRACING
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    try_add = AllocationState.try_add
    restore = AllocationState.restore
    enter = SharedModelGroup.__enter__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert AllocationState.try_add is not try_add
        assert SharedModelGroup.__enter__ is not enter
        assert SharedModelGroup.__enter__.__wrapped__ is enter
        # the stub subclass is wrapped on its own, never through the
        # base class twice
        assert "try_add" in vars(SoaAllocationState)
    finally:
        tracer.uninstall()
    assert AllocationState.try_add is try_add
    assert AllocationState.restore is restore
    assert SharedModelGroup.__enter__ is enter
    assert "try_add" not in vars(SoaAllocationState)
    assert "restore" not in vars(SoaAllocationState)
