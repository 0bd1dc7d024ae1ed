"""Placeholder for the deleted batched population kernel.

``perfbench/tracing.py`` imports this module and wraps
``BatchEvaluator.__call__``; the class exists only so that import keeps
working until the tracer reads built-in spans (the observability item
of ROADMAP.md).  Nothing constructs it: the PSG initial population is
scored through the scalar :class:`~repro.core.state.AllocationState`
like every other ordering.
"""

from __future__ import annotations

__all__ = ["BatchEvaluator"]


class BatchEvaluator:
    """Never constructed; see the module docstring."""

    def __call__(self, *args: object) -> None:
        raise NotImplementedError("the batched population kernel is deleted")
