"""Anytime solver cascade: mwf+ls → mwf → psg → tf under a deadline.

The mission controller must answer every request — a string arriving, a
machine failing, workload drifting — with a *feasible* allocation inside
a wall-clock budget.  No single heuristic fits that contract: the GA
finds the best mappings but needs seconds, the greedy single-shots
answer in milliseconds but leave worth on the table.

The cascade runs the **cheap greedy tiers first** and the GA only where
they fall short, each tier under a share of the *remaining* budget, and
keeps the lexicographically best
:class:`~repro.heuristics.base.HeuristicResult` seen so far:

* **interruptible tiers** (the GA heuristics) receive their budget as a
  ``max_wall_seconds`` stopping rule and return their elite when it
  expires — an anytime search;
* **single-shot tiers** run to completion; finishing beyond
  ``budget × overrun_factor`` is reported to the tier's circuit breaker
  as a timeout so chronically slow tiers get skipped next time;
* the final tier is **guaranteed**: it runs even with an exhausted
  budget, so the cascade never returns empty-handed (TF on a pruned
  model is microseconds);
* each tier sits behind a :class:`~repro.service.breaker.CircuitBreaker`
  and transient exceptions are retried with jittered backoff
  (:mod:`repro.parallel.retry`) while the deadline allows.

A caller may hand in an **incumbent** (the controller's carry-forward
floor): the search starts from it, a tier replaces it only when
strictly better, and the GA tiers are skipped while the best result so
far places every string, since then no tier can raise worth.  The
greedy tiers still run; they can raise slackness.  In the default
order the greedy tiers come first, so the GA runs only when the floor
and both greedy answers leave a string unplaced: worth first, slackness
second, as the paper ranks allocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.exceptions import ModelError
from ..core.model import SystemModel
from ..genitor import GenitorConfig, StoppingRules
from ..heuristics import HeuristicResult, get_heuristic, is_interruptible
from .breaker import BreakerConfig, CircuitBreaker
from .deadline import Deadline
from ..parallel.retry import RetryError, RetryPolicy, retry_call

__all__ = [
    "AttemptRecord",
    "CascadeConfig",
    "CascadeResult",
    "DEFAULT_TIERS",
    "SolverCascade",
    "TierSpec",
]


@dataclass(frozen=True)
class TierSpec:
    """One cascade tier.

    ``share`` is the fraction of the *remaining* deadline offered to the
    tier; ``guaranteed`` marks the last-resort tier that runs even after
    the deadline has expired.
    """

    heuristic: str
    share: float = 0.5
    guaranteed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ModelError(f"share must lie in (0, 1], got {self.share}")


#: Default tiers, cheap first: local search and the greedy single-shot
#: answer in milliseconds; the GA (anytime) runs only while a string is
#: still unplaced, since otherwise it could raise slackness alone; TF is
#: the guaranteed last resort.
DEFAULT_TIERS: tuple[TierSpec, ...] = (
    TierSpec("mwf+ls", share=0.5),
    TierSpec("mwf", share=0.5),
    TierSpec("psg", share=0.6),
    TierSpec("tf", share=1.0, guaranteed=True),
)


@dataclass(frozen=True)
class CascadeConfig:
    """Cascade tuning knobs.

    The GA hyper-parameters are deliberately smaller than the paper's
    offline settings — the service solves many small pruned instances,
    not one 150-string planning problem.
    """

    tiers: tuple[TierSpec, ...] = DEFAULT_TIERS
    overrun_factor: float = 4.0
    min_tier_budget: float = 0.005
    ga_population: int = 50
    ga_max_iterations: int = 2_000
    ga_max_stale: int = 200
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=2, base_delay=0.01)
    )
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ModelError("cascade needs at least one tier")
        if not self.tiers[-1].guaranteed:
            raise ModelError("the final cascade tier must be guaranteed")
        if self.overrun_factor < 1.0:
            raise ModelError("overrun_factor must be >= 1")
        if self.min_tier_budget <= 0:
            raise ModelError("min_tier_budget must be positive")


@dataclass
class AttemptRecord:
    """What happened when the cascade considered one tier."""

    tier: str
    #: ``ok`` | ``timeout`` | ``error`` | ``skipped-breaker`` |
    #: ``skipped-budget`` | ``skipped-policy`` | ``skipped-incumbent``
    #: (a GA tier skipped because the best so far places every string)
    status: str
    runtime_seconds: float = 0.0
    budget_seconds: float = 0.0
    worth: float | None = None
    detail: str = ""
    #: the tier's result, when it produced one (not serialized anywhere)
    result: HeuristicResult | None = field(default=None, repr=False)


@dataclass
class CascadeResult:
    """Outcome of one cascade invocation."""

    best: HeuristicResult | None
    attempts: list[AttemptRecord]
    #: True when the winning result was produced within the deadline.
    deadline_hit: bool
    elapsed_seconds: float

    @property
    def tier_used(self) -> str | None:
        return None if self.best is None else self.best.name

    def summary(self) -> str:
        used = self.tier_used or "none"
        return (
            f"cascade: tier={used} "
            f"deadline_hit={self.deadline_hit} "
            f"elapsed={self.elapsed_seconds:.3f}s "
            f"attempts={[a.status for a in self.attempts]}"
        )


class SolverCascade:
    """Deadline-aware heuristic cascade with per-tier circuit breakers.

    One instance is long-lived (breaker state spans requests); each call
    to :meth:`solve` serves one request under its own
    :class:`~repro.service.deadline.Deadline`.
    """

    def __init__(
        self,
        config: CascadeConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or CascadeConfig()
        self._clock = clock
        self._sleep = sleep
        self.breakers: dict[str, CircuitBreaker] = {
            tier.heuristic: CircuitBreaker(
                tier.heuristic, self.config.breaker, clock=clock
            )
            for tier in self.config.tiers
        }

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        model: SystemModel,
        deadline: Deadline,
        allowed_tiers: frozenset[str] | None = None,
        rng: np.random.Generator | int | None = None,
        incumbent: HeuristicResult | None = None,
    ) -> CascadeResult:
        """Best feasible allocation of ``model`` within ``deadline``.

        Parameters
        ----------
        model:
            The (already pruned / drifted / fault-masked) instance.
        deadline:
            The request's wall-clock budget.
        allowed_tiers:
            Health-policy restriction: tiers outside the set are skipped
            (the guaranteed tier always runs).  ``None`` allows all.
        rng:
            Seed or generator for the stochastic tiers.
        incumbent:
            A feasible answer known before the search (the carry-forward
            floor).  It is the starting best and wins ties; while the
            best places every string the GA tiers are skipped.
        """
        generator = np.random.default_rng(rng)
        attempts: list[AttemptRecord] = []
        best = incumbent
        best_within_deadline = not deadline.expired
        start = self._clock()

        for tier in self.config.tiers:
            if (
                best is not None
                and len(best.mapped_ids) == model.n_strings
                and is_interruptible(tier.heuristic)
            ):
                attempts.append(
                    AttemptRecord(tier.heuristic, "skipped-incumbent")
                )
                continue

            if (
                allowed_tiers is not None
                and tier.heuristic not in allowed_tiers
                and not tier.guaranteed
            ):
                attempts.append(
                    AttemptRecord(tier.heuristic, "skipped-policy")
                )
                continue

            # the budget check comes before ``allow()``: a HALF_OPEN
            # breaker hands out its one probe there, and a tier skipped
            # afterwards would never report the probe's outcome
            budget = deadline.remaining() * tier.share
            if not tier.guaranteed and budget < self.config.min_tier_budget:
                attempts.append(
                    AttemptRecord(
                        tier.heuristic,
                        "skipped-budget",
                        budget_seconds=budget,
                    )
                )
                continue

            breaker = self.breakers[tier.heuristic]
            if not tier.guaranteed and not breaker.allow():
                attempts.append(
                    AttemptRecord(
                        tier.heuristic,
                        "skipped-breaker",
                        detail=breaker.state.value,
                    )
                )
                continue

            if tier.guaranteed:
                # the last resort always gets a nominal budget to run in
                budget = max(budget, self.config.min_tier_budget)

            record = self._attempt(tier, model, budget, deadline, generator)
            attempts.append(record)
            if record.status in ("ok", "timeout") and record.result is not None:
                result = record.result
                if best is None or result.fitness > best.fitness:
                    best = result
                    best_within_deadline = not deadline.expired

        return CascadeResult(
            best=best,
            attempts=attempts,
            deadline_hit=best is not None and best_within_deadline,
            elapsed_seconds=self._clock() - start,
        )

    # -- one tier --------------------------------------------------------------

    def _attempt(
        self,
        tier: TierSpec,
        model: SystemModel,
        budget: float,
        deadline: Deadline,
        rng: np.random.Generator,
    ) -> AttemptRecord:
        heuristic = get_heuristic(tier.heuristic)
        breaker = self.breakers[tier.heuristic]
        kwargs: dict[str, object] = {}
        if is_interruptible(tier.heuristic):
            kwargs["config"] = GenitorConfig(
                population_size=self.config.ga_population,
                rules=StoppingRules(
                    max_iterations=self.config.ga_max_iterations,
                    max_stale_iterations=self.config.ga_max_stale,
                    max_wall_seconds=budget,
                ),
            )

        trial_rng = np.random.default_rng(rng.integers(2**63))
        started = self._clock()
        record = AttemptRecord(
            tier.heuristic, status="error", budget_seconds=budget
        )
        try:
            result = retry_call(
                lambda: heuristic(model, rng=trial_rng, **kwargs),
                policy=self.config.retry,
                rng=np.random.default_rng(rng.integers(2**63)),
                sleep=self._sleep,
                give_up_after=lambda: deadline.expired,
            )
        except RetryError as exc:
            record.runtime_seconds = self._clock() - started
            record.detail = repr(exc.__cause__)
            breaker.record_failure()
            record.result = None
            return record

        record.runtime_seconds = self._clock() - started
        record.worth = result.fitness.worth
        record.result = result
        if record.runtime_seconds > budget * self.config.overrun_factor:
            # the result still counts, but the tier blew its budget —
            # breaker-visible so chronic offenders get skipped
            record.status = "timeout"
            breaker.record_failure()
        else:
            record.status = "ok"
            breaker.record_success()
        return record
