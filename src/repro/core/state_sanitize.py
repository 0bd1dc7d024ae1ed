"""The ``sanitize`` check: batched lanes against the scalar projection.

Two kernels evaluate feasibility: the scalar
:class:`~repro.core.state.AllocationState` (every search path) and the
batched population kernel (:mod:`repro.core.state_batch`, the PSG
initial population).  They promise bit-identical results.  Under
``REPRO_STATE_BACKEND=sanitize`` the PSG drivers score their initial
population through :class:`SanitizeBatchEvaluator`, which re-projects
every ordering through the scalar
:func:`~repro.heuristics.ordering.allocate_sequence` and compares
fitness, mapped prefix, failing string and every
:class:`~repro.core.state.RejectionReason` field, raising
:class:`StateDivergenceError` at the first mismatch.  Any test run thus
becomes an equivalence audit of the two kernels.

All comparisons are *exact*, not tolerance-based: both kernels perform
the same scalar floating-point operations in the same canonical order
(see :mod:`repro.core.state`), so even one ULP of drift is a real
ordering bug that epsilon comparison would mask.  It is strictly a
verification tool — roughly the cost of both kernels — and never a
benchmark target.
"""

from __future__ import annotations

from typing import Sequence

from .metrics import Fitness
from .state_batch import BatchEvaluator, BatchOutcome, project_batch

__all__ = ["SanitizeBatchEvaluator", "StateDivergenceError"]


class StateDivergenceError(AssertionError):
    """The batched and scalar kernels disagreed on one ordering.

    Derives from :class:`AssertionError`: a divergence is a broken
    invariant of the reproduction, never a recoverable condition.
    """


class SanitizeBatchEvaluator(BatchEvaluator):
    """:class:`BatchEvaluator` that checks every lane against the scalar
    projection before returning its fitness."""

    def __call__(
        self, chromosomes: Sequence[Sequence[int]]
    ) -> list[Fitness]:
        outcomes = project_batch(
            self.model,
            chromosomes,
            profile_cache=self.profile_cache,
            tol=self.tol,
            max_lanes=self.max_lanes,
        )
        for order, batched in zip(chromosomes, outcomes):
            fail = self._divergence(order, batched)
            if fail is not None:
                raise StateDivergenceError(
                    f"ordering {list(order)}: {fail}"
                )
        return [o.fitness for o in outcomes]

    def _divergence(
        self, order: Sequence[int], batched: BatchOutcome
    ) -> str | None:
        """First disagreement between a lane and the scalar projection
        (which always runs at the default tolerance)."""
        from ..heuristics.ordering import allocate_sequence

        scalar = allocate_sequence(
            self.model, order, profile_cache=self.profile_cache
        )
        # RejectionReason is a frozen dataclass: == compares every
        # field, the floats exactly.
        fields = (
            ("fitness", batched.fitness, scalar.fitness()),
            ("mapped ids", batched.mapped_ids, scalar.mapped_ids),
            ("failed id", batched.failed_id, scalar.failed_id),
            ("rejection", batched.rejection, scalar.state.last_rejection),
        )
        for name, got, want in fields:
            if got != want:
                return f"{name} {got!r} (batched) != {want!r} (scalar)"
        return None

