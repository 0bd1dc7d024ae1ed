"""Placeholder for the deleted struct-of-arrays kernel.

``perfbench/tracing.py`` imports this module and wraps
``SoaAllocationState.try_add`` / ``.restore``; the class exists only so
that import keeps working until the tracer reads built-in spans (the
observability item of ROADMAP.md).  Nothing constructs it.  It is a
distinct subclass rather than an alias so the tracer does not wrap the
scalar kernel twice and double-count its calls.
"""

from __future__ import annotations

from .state import RecordAllocationState

__all__ = ["SoaAllocationState"]


class SoaAllocationState(RecordAllocationState):
    """Never constructed; see the module docstring."""
