"""The mission controller: events in, feasible allocations out — on time.

:class:`MissionController` is the tentpole of :mod:`repro.service`.  It
owns the mission state — which catalog services are active, the
accumulated platform faults, the drifted workload factors — and serves
each :class:`~repro.service.events.MissionEvent` as one *request*:

1. apply the event to the mission state;
2. drain the worth-priority admission queue under the current health
   state's slack floor;
3. build the **working model**: the active catalog strings (contiguous
   local ids), workload scaled by the accumulated drift, accumulated
   faults masked in via :func:`repro.faults.injector.inject`;
4. compute the *carry-forward floor*: re-validating the previous
   placements is microseconds and gives a guaranteed feasible answer
   before any search starts;
5. run the :class:`~repro.service.cascade.SolverCascade` under the
   request deadline (tiers restricted by health policy) with the floor
   as its incumbent: the cascade keeps the lexicographic best, and
   skips the GA when the floor or a greedy tier already places every
   string;
6. shed lowest-worth services while slackness sits below the health
   floor; record everything in a :class:`RequestOutcome`;
7. feed slackness / deadline / breaker signals back into the
   :class:`~repro.service.health.HealthMonitor`.

The controller never raises on a servable request: the step 4 floor is
a feasible (possibly empty) allocation the cascade can only replace
with a better one, even when every solver tier is broken or the budget
is already gone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.allocation import Allocation
from ..core.exceptions import ModelError
from ..core.model import AppString, SystemModel
from ..dynamic.policies import carry_forward
from ..faults.events import FaultEvent, normalize_faults
from ..faults.injector import inject
from ..heuristics import HeuristicResult
from .admission import QueuedRequest, RequestQueue, plan_shedding
from .breaker import BreakerState
from .cascade import CascadeConfig, SolverCascade
from .deadline import Deadline
from .events import (
    DriftStep,
    FaultsCleared,
    MissionEvent,
    PlatformFault,
    StringArrival,
    StringDeparture,
)
from .health import HealthConfig, HealthMonitor, HealthState

__all__ = [
    "MissionController",
    "RequestOutcome",
    "ServiceConfig",
    "build_working_model",
]

#: accumulated drift factors are clipped to this range so a long walk
#: cannot underflow a string's workload to zero or blow it up unboundedly
_DRIFT_CLIP = (0.1, 10.0)


def build_working_model(
    catalog: SystemModel,
    active: tuple[int, ...],
    drift: np.ndarray,
    fault_events: Sequence[FaultEvent],
) -> SystemModel:
    """The model the solvers see: active catalog strings with contiguous
    local ids, workload scaled by the accumulated drift factors, and the
    accumulated faults masked in (index-stable, see
    :mod:`repro.faults.injector`)."""
    strings = []
    for local, sid in enumerate(active):
        s = catalog.strings[sid]
        f = float(drift[sid])
        strings.append(
            AppString(
                string_id=local,
                worth=s.worth,
                period=s.period,
                max_latency=s.max_latency,
                comp_times=s.comp_times * f,
                cpu_utils=s.cpu_utils,
                output_sizes=s.output_sizes * f,
                name=s.name,
            )
        )
    model = SystemModel(catalog.network, strings, catalog.machines)
    if fault_events:
        model = inject(model, fault_events).faulted
    return model


@dataclass(frozen=True)
class ServiceConfig:
    """Controller-level tuning knobs."""

    #: wall-clock budget per request (seconds)
    default_budget: float = 0.25
    #: acceptance tolerance beyond the deadline (seconds); the soak
    #: harness asserts no request ever exceeds budget + grace
    grace: float = 0.25
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.default_budget <= 0:
            raise ModelError("default_budget must be positive")
        if self.grace < 0:
            raise ModelError("grace must be >= 0")


@dataclass
class RequestOutcome:
    """Everything that happened while serving one event."""

    seq: int
    event_kind: str
    event_detail: str
    n_active: int
    worth: float
    slackness: float
    deadline_hit: bool
    elapsed_seconds: float
    budget_seconds: float
    tier_used: str | None
    health: str
    admitted: tuple[int, ...] = ()
    rejected: tuple[int, ...] = ()
    shed: tuple[int, ...] = ()
    attempt_statuses: tuple[str, ...] = ()
    note: str = ""


class MissionController:
    """Online allocation service over a fixed mission catalog.

    Parameters
    ----------
    catalog:
        The full mission model; catalog service ``k`` is
        ``catalog.strings[k]``.  Active services are a subset.
    config:
        Service tuning (budgets, cascade, health thresholds).
    rng:
        Seed or generator for the stochastic solver tiers.
    clock / sleep:
        Injectable time sources (deterministic tests).
    """

    def __init__(
        self,
        catalog: SystemModel,
        config: ServiceConfig | None = None,
        rng: np.random.Generator | int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.catalog = catalog
        self.config = config or ServiceConfig()
        # per-request RNGs are derived from (base seed, request seq) so a
        # journal-recovered controller reproduces the original stream
        self._base_seed = int(np.random.default_rng(rng).integers(2**32))
        self._clock = clock
        self.cascade = SolverCascade(
            self.config.cascade, clock=clock, sleep=sleep
        )
        self.monitor = HealthMonitor(self.config.health)
        self.queue = RequestQueue()
        #: active catalog service ids
        self.active: set[int] = set()
        #: service id -> machine assignment (one machine per application)
        self.placements: dict[int, tuple[int, ...]] = {}
        self._fault_events: list[FaultEvent] = []
        self._drift = np.ones(catalog.n_strings)
        self._seq = 0
        self.n_rejected_total = 0
        self.n_shed_total = 0

    # -- public API ------------------------------------------------------------

    @property
    def health(self) -> HealthState:
        return self.monitor.state

    def activate(self, service_ids: Iterable[int]) -> None:
        """Mark services active without serving a request (initial load)."""
        for sid in service_ids:
            self._check_service(sid)
            self.active.add(sid)

    def handle(
        self, event: MissionEvent, budget: float | None = None
    ) -> RequestOutcome:
        """Serve one mission event within a wall-clock budget."""
        budget = self.config.default_budget if budget is None else budget
        deadline = Deadline(budget, clock=self._clock)
        self._seq += 1
        note = self._apply(event)
        admitted, rejected = self._drain_queue()
        outcome = self._solve_request(event, deadline, note)
        outcome.admitted = tuple(admitted)
        outcome.rejected = tuple(rejected)
        self.n_rejected_total += len(rejected)
        return outcome

    def run(
        self,
        events: Sequence[MissionEvent],
        budget: float | None = None,
    ) -> list[RequestOutcome]:
        """Serve an event stream; one outcome per event."""
        return [self.handle(event, budget=budget) for event in events]

    def allocation_snapshot(self) -> dict[int, tuple[int, ...]]:
        """The current placements, keyed by catalog service id."""
        return dict(self.placements)

    def apply_event_state(self, event: MissionEvent) -> str:
        """Apply an event's *state* effect without serving a request.

        Used by durable recovery
        (:class:`~repro.service.durable.DurableMissionController`) to
        replay fault accumulation and drift for already-applied events
        without re-running their solves.  Arrival/departure effects are
        restored wholesale via :meth:`restore` instead, so this skips
        the queue.
        """
        if isinstance(event, (StringArrival, StringDeparture)):
            return "skipped (restored from checkpoint)"
        return self._apply(event)

    def restore(
        self,
        active: Iterable[int],
        placements: dict[int, tuple[int, ...]],
        n_served: int,
    ) -> None:
        """Restore committed allocation state (durable recovery)."""
        self.active = set(active)
        for sid in self.active:
            self._check_service(sid)
        self.placements = dict(placements)
        self._seq = n_served

    # -- event application -----------------------------------------------------

    def _check_service(self, sid: int) -> None:
        if not 0 <= sid < self.catalog.n_strings:
            raise ModelError(
                f"service id {sid} out of range "
                f"[0, {self.catalog.n_strings})"
            )

    def _apply(self, event: MissionEvent) -> str:
        if isinstance(event, StringArrival):
            self._check_service(event.service_id)
            if event.service_id in self.active:
                return "already active"
            self.queue.push(
                QueuedRequest(
                    event.service_id,
                    self.catalog.strings[event.service_id].worth,
                )
            )
            return ""
        if isinstance(event, StringDeparture):
            self._check_service(event.service_id)
            if event.service_id not in self.active:
                return "not active"
            self.active.discard(event.service_id)
            self.placements.pop(event.service_id, None)
            return ""
        if isinstance(event, PlatformFault):
            try:
                normalize_faults(
                    [*self._fault_events, event.fault],
                    self.catalog.n_machines,
                )
            except ModelError as exc:
                return f"fault ignored: {exc}"
            self._fault_events.append(event.fault)
            return ""
        if isinstance(event, FaultsCleared):
            self._fault_events.clear()
            return ""
        if isinstance(event, DriftStep):
            steps = np.asarray(event.step_factors, dtype=float)
            if steps.shape != (self.catalog.n_strings,):
                raise ModelError(
                    f"drift step needs {self.catalog.n_strings} factors, "
                    f"got {steps.shape}"
                )
            self._drift = np.clip(self._drift * steps, *_DRIFT_CLIP)
            return ""
        raise ModelError(f"unknown mission event {event!r}")

    def _drain_queue(self) -> tuple[list[int], list[int]]:
        """Admit queued arrivals, highest worth first, under the floor."""
        floor = self.monitor.policy.admission_slack_floor
        # slackness of the allocation standing before this drain,
        # computed only when an arrival meets a positive floor
        current_slack: float | None = None
        admitted: list[int] = []
        rejected: list[int] = []
        while self.queue:
            request = self.queue.pop()
            if request.service_id in self.active:
                continue
            if floor > 0:
                if current_slack is None:
                    current_slack = self._current_slackness()
                if current_slack < floor:
                    rejected.append(request.service_id)
                    continue
            self.active.add(request.service_id)
            admitted.append(request.service_id)
        return admitted, rejected

    def _current_slackness(self) -> float:
        """Slackness of the standing allocation on the current model."""
        active = tuple(sorted(self.active))
        if not active:
            return 1.0
        model = self._working_model(active)
        state, _ = carry_forward(
            model, self._restricted_allocation(model, active)
        )
        return state.slackness()

    # -- model construction ----------------------------------------------------

    def _working_model(self, active: tuple[int, ...]) -> SystemModel:
        """Active catalog strings, drift-scaled, faults masked in."""
        return build_working_model(
            self.catalog, active, self._drift, self._fault_events
        )

    def _restricted_allocation(
        self, model: SystemModel, active: tuple[int, ...]
    ) -> Allocation:
        """The stored placements translated into working-model ids."""
        assignments = {
            local: np.asarray(self.placements[sid], dtype=np.int64)
            for local, sid in enumerate(active)
            if sid in self.placements
        }
        return Allocation(model, assignments)

    # -- request solving -------------------------------------------------------

    def _solve_request(
        self, event: MissionEvent, deadline: Deadline, note: str
    ) -> RequestOutcome:
        active = tuple(sorted(self.active))
        if not active:
            self.placements.clear()
            self.monitor.observe(
                slackness=1.0,
                deadline_hit=True,
                open_breakers=self._open_breakers(),
            )
            return RequestOutcome(
                seq=self._seq,
                event_kind=event.kind,
                event_detail=event.describe(),
                n_active=0,
                worth=0.0,
                slackness=1.0,
                deadline_hit=True,
                elapsed_seconds=deadline.elapsed(),
                budget_seconds=deadline.budget,
                tier_used=None,
                health=self.monitor.state.name,
                note=note or "no active services",
            )

        model = self._working_model(active)

        # guaranteed floor: carrying forward the old placements is
        # microseconds, so a feasible answer exists before any search
        floor_state, _ = carry_forward(
            model, self._restricted_allocation(model, active)
        )
        floor_result = HeuristicResult(
            name="carry-forward",
            allocation=floor_state.as_allocation(),
            fitness=floor_state.fitness(),
            order=tuple(floor_state.mapped_ids),
            mapped_ids=tuple(floor_state.mapped_ids),
        )

        cascade_result = self.cascade.solve(
            model,
            deadline,
            allowed_tiers=self.monitor.policy.allowed_tiers,
            rng=np.random.default_rng((self._base_seed, self._seq)),
            incumbent=floor_result,
        )
        best = cascade_result.best
        assert best is not None  # the incumbent is never dropped
        deadline_hit = cascade_result.deadline_hit

        allocation, slackness, shed_sids = self._apply_slack_floor(
            model, active, best.allocation
        )
        worth = allocation.total_worth()

        # commit: unmapped / shed services stand down
        mapped_sids = {active[local] for local in allocation}
        implicit = tuple(
            sid for sid in active
            if sid not in mapped_sids and sid not in shed_sids
        )
        all_shed = tuple(shed_sids) + implicit
        self.active = set(mapped_sids)
        self.placements = {
            active[local]: tuple(
                int(j) for j in allocation.machines_for(local)
            )
            for local in allocation
        }
        self.n_shed_total += len(all_shed)

        self.monitor.observe(
            slackness=slackness,
            deadline_hit=deadline_hit,
            open_breakers=self._open_breakers(),
        )
        return RequestOutcome(
            seq=self._seq,
            event_kind=event.kind,
            event_detail=event.describe(),
            n_active=len(self.active),
            worth=worth,
            slackness=slackness,
            deadline_hit=deadline_hit,
            elapsed_seconds=deadline.elapsed(),
            budget_seconds=deadline.budget,
            tier_used=best.name,
            health=self.monitor.state.name,
            shed=all_shed,
            attempt_statuses=tuple(
                f"{a.tier}:{a.status}" for a in cascade_result.attempts
            ),
            note=note,
        )

    def _apply_slack_floor(
        self,
        model: SystemModel,
        active: tuple[int, ...],
        allocation: Allocation,
    ) -> tuple[Allocation, float, list[int]]:
        """Shed lowest-worth services while slackness is below the floor."""
        # Not redundant: re-accumulated slackness can be an ulp off fitness.slackness.
        state, _ = carry_forward(model, allocation)
        slackness = state.slackness()
        floor = self.monitor.policy.admission_slack_floor
        if slackness >= floor or len(allocation) == 0:
            return state.as_allocation(), slackness, []

        def project(kept: frozenset[int]) -> float | None:
            projected, _ = carry_forward(
                model, allocation.restricted_to(kept)
            )
            return projected.slackness()

        mapped = tuple(allocation)
        worths = {
            local: model.strings[local].worth for local in mapped
        }
        shed_locals, final_slack = plan_shedding(
            mapped, worths, project, floor
        )
        kept = [local for local in mapped if local not in set(shed_locals)]
        final_state, _ = carry_forward(
            model, allocation.restricted_to(kept)
        )
        return (
            final_state.as_allocation(),
            final_state.slackness(),
            [active[local] for local in shed_locals],
        )

    def _open_breakers(self) -> int:
        return sum(
            1
            for breaker in self.cascade.breakers.values()
            if breaker.state is BreakerState.OPEN
        )
