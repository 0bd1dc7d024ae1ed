"""Reinsertion local search — an extension beyond the paper's heuristics.

The paper's heuristics commit to each string's IMR placement forever;
once later strings load the system, an early placement may be far from
ideal.  This module adds a hill-climbing improvement pass operating
directly on the incremental :class:`~repro.core.state.AllocationState`:

* **reinsertion move** — remove one mapped string and re-derive its IMR
  assignment against the *remaining* load; keep the move iff the
  two-component fitness strictly improves (the removal/try-add pair is
  exactly reversible, so rejected moves restore the prior state);
* **repair step** — after each improvement round, retry every unmapped
  string in worth order (freed capacity may admit strings the original
  allocate-until-failure pass never reached).

Both steps run on the scalar kernel, one ``try_add`` per probe: a
batched repair probe was measured slower (up to 2x at 100 strings x
8 machines) and removed.

The search is deterministic, anytime, and strictly non-degrading —
``local_search(result).fitness >= result.fitness`` always holds, which
the test suite asserts property-style.  ``mwf+ls`` (MWF followed by this
pass) is registered as a fifth heuristic for ablation against the GA:
it probes how much of PSG's advantage is *reordering* versus merely
*revisiting placements*.
"""

from __future__ import annotations

import numpy as np

from ..core.model import SystemModel
from ..core.state import AllocationState
from .base import HeuristicResult, timed_section
from .imr import imr_map_string
from .mwf import most_worth_first, mwf_order

__all__ = ["local_search", "mwf_with_local_search"]


def _try_repair(state: AllocationState, order: tuple[int, ...]) -> int:
    """Attempt to map every unmapped string, returning how many stuck."""
    added = 0
    for k in order:
        if k in state:
            continue
        assignment = imr_map_string(state, k)
        if state.try_add(k, assignment):
            added += 1
    return added


def local_search(
    model: SystemModel,
    initial: HeuristicResult,
    max_rounds: int = 10,
) -> HeuristicResult:
    """Improve an existing heuristic result by reinsertion moves.

    Parameters
    ----------
    model:
        The problem instance ``initial`` was computed on.
    initial:
        Any heuristic's result; its allocation seeds the search.
    max_rounds:
        Upper bound on improvement sweeps (each sweep visits every
        mapped string once, then runs a repair step).

    Returns
    -------
    HeuristicResult
        Named ``"<initial.name>+ls"``; fitness is never worse than
        ``initial.fitness``.
    """
    with timed_section() as elapsed:
        # Rebuild the state from the initial allocation.
        state = AllocationState(model)
        for k in initial.allocation:
            ok = state.try_add(k, initial.allocation.machines_for(k))
            if not ok:  # pragma: no cover - initial results are feasible
                raise AssertionError(
                    f"initial allocation infeasible at string {k}"
                )
        repair_order = mwf_order(model)
        moves = 0
        rounds = 0
        for _round in range(max_rounds):
            rounds += 1
            improved = False
            for k in list(state.mapped_ids):
                before = state.fitness()
                original = state.machines_for(k)  # read-only, immutable
                state.remove(k)
                candidate = imr_map_string(state, k)
                if candidate == original.tolist():
                    restored = state.try_add(k, original)
                    assert restored
                    continue
                if state.try_add(k, candidate) and state.fitness() > before:
                    moves += 1
                    improved = True
                    continue
                # revert: drop the candidate (if accepted) and restore
                if k in state:
                    state.remove(k)
                restored = state.try_add(k, original)
                assert restored, "restoring a feasible placement failed"
            if _try_repair(state, repair_order) > 0:
                moves += 1
                improved = True
            if not improved:
                break
    final_fitness = state.fitness()
    if final_fitness < initial.fitness:
        # Rebuilding the state and cycling remove/try_add sums the
        # utilization accumulators in a different order than the
        # initial heuristic did, so slackness can drift by float dust
        # (~1e-15).  When no genuinely improving move exists that dust
        # can leave the final fitness nominally below the initial one;
        # return the initial allocation unchanged in that case, keeping
        # the documented never-degrades guarantee exact.  Anything
        # beyond dust would be a logic bug and still fails loudly.
        worth_equal = final_fitness.worth == initial.fitness.worth
        slack_drift = abs(
            final_fitness.slackness - initial.fitness.slackness
        )
        assert worth_equal and slack_drift < 1e-9, (
            f"local search degraded fitness: {final_fitness} < "
            f"{initial.fitness}"
        )
        return HeuristicResult(
            name=f"{initial.name}+ls",
            allocation=initial.allocation,
            fitness=initial.fitness,
            order=initial.order,
            mapped_ids=initial.mapped_ids,
            runtime_seconds=initial.runtime_seconds + elapsed[0],
            stats={
                "initial_fitness": initial.fitness.as_tuple(),
                "moves": 0,
                "rounds": rounds,
            },
        )
    return HeuristicResult(
        name=f"{initial.name}+ls",
        allocation=state.as_allocation(),
        fitness=final_fitness,
        order=initial.order,
        mapped_ids=tuple(state.mapped_ids),
        runtime_seconds=initial.runtime_seconds + elapsed[0],
        stats={
            "initial_fitness": initial.fitness.as_tuple(),
            "moves": moves,
            "rounds": rounds,
        },
    )


def mwf_with_local_search(
    model: SystemModel,
    rng: np.random.Generator | None = None,
    max_rounds: int = 10,
) -> HeuristicResult:
    """MWF followed by the reinsertion local search (``mwf+ls``)."""
    return local_search(model, most_worth_first(model, rng=rng),
                        max_rounds=max_rounds)
