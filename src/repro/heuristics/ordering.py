"""Sequential allocate-until-first-failure (the permutation→solution map).

Every heuristic in the paper translates an *ordering* of strings (a point
in the permutation space) into a mapping (a point in the solution space)
the same way: walk the ordering, map each string with the IMR, validate
the intermediate mapping with the two-stage feasibility analysis, and
**terminate the whole process at the first string that fails** — the
previous intermediate mapping is the final result (Section 5, MWF
description; the same projection is used for every GENITOR chromosome).

:func:`allocate_sequence` implements that projection on top of the
incremental :class:`~repro.core.state.AllocationState`, whose
``try_add`` performs exactly the intermediate feasibility analysis
(leaving the state untouched on failure).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.metrics import Fitness
from ..core.profile import ProfileCache
from ..core.state import AllocationState
from ..core.model import SystemModel
from .imr import imr_map_string

__all__ = ["allocate_sequence", "SequenceOutcome"]


class SequenceOutcome:
    """Result of projecting one string ordering into the solution space.

    Attributes
    ----------
    state:
        The allocation state after the final successful addition.
    mapped_ids:
        Prefix of the ordering that was allocated.
    failed_id:
        The string at which allocation stopped, or ``None`` when the
        entire ordering allocated (complete resource allocation).
    """

    __slots__ = ("state", "mapped_ids", "failed_id")

    def __init__(
        self,
        state: AllocationState,
        mapped_ids: tuple[int, ...],
        failed_id: int | None,
    ):
        self.state = state
        self.mapped_ids = mapped_ids
        self.failed_id = failed_id

    @property
    def complete(self) -> bool:
        """True when every string in the ordering was allocated."""
        return self.failed_id is None

    def fitness(self) -> Fitness:
        return self.state.fitness()


def allocate_sequence(
    model: SystemModel,
    order: Sequence[int],
    rng: np.random.Generator | None = None,
    stop_on_failure: bool = True,
    profile_cache: ProfileCache | None = None,
) -> SequenceOutcome:
    """Allocate strings in ``order`` with the IMR until the first failure.

    Parameters
    ----------
    model:
        The problem instance.
    order:
        A permutation (or subset) of string ids.
    rng:
        Optional generator for IMR tie-breaking.
    stop_on_failure:
        ``True`` (paper semantics): terminate at the first string whose
        intermediate mapping fails feasibility.  ``False``: skip failing
        strings and keep trying the rest — a best-effort variant used by
        the skip-ahead baseline and ablations.
    profile_cache:
        Optional model-scoped memo of per-(string, assignment) resource
        profiles shared across projections.

    Returns
    -------
    SequenceOutcome
    """
    state = AllocationState(model, profile_cache=profile_cache)
    mapped: list[int] = []
    failed: int | None = None
    for k in order:
        assignment = imr_map_string(state, k, rng=rng)
        if state.try_add(k, assignment):
            mapped.append(k)
        else:
            failed = k
            if stop_on_failure:
                break
    return SequenceOutcome(state, tuple(mapped), failed)

