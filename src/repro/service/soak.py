"""Long-horizon soak harness for the online allocation service.

``repro soak`` replays a seeded fault + drift + churn scenario through
the :class:`~repro.service.controller.MissionController` and reports the
resilience metrics the service is judged on:

* **worth retained** per step (and total) — compared against the bare
  shed-only baseline (``mode="shed-baseline"``): an initial MWF
  allocation that is only ever carried forward, never re-solved;
* **deadline-hit rate** — fraction of requests whose answer was
  produced within the per-request budget;
* **latency percentiles per winning tier** (p50 / p99) and the maximum
  overrun beyond budget + grace.

With a journal directory the run sits on the fsync'd write-ahead
journal (:mod:`repro.service.durable`): every event is committed before
it is applied, so a ``kill -9`` at any instruction forfeits at most the
event whose commit never completed.  Rerunning with the same directory
regenerates the event stream from the seed, recovers the applied steps
state-only (no solving) from their journaled outcome records, and
continues from the first unapplied event.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.allocation import Allocation
from ..core.exceptions import ModelError
from ..core.model import SystemModel
from ..dynamic.policies import carry_forward
from ..faults.events import FaultEvent, normalize_faults
from ..heuristics import get_heuristic
from ..io_utils.checkpoint import fingerprint_payload
from ..workload.generator import generate_model
from ..workload.parameters import get_scenario
from .controller import (
    MissionController,
    RequestOutcome,
    ServiceConfig,
    build_working_model,
)
from .durable import DurableMissionController, outcome_record
from .events import (
    DriftStep,
    FaultsCleared,
    MissionEvent,
    PlatformFault,
    ScenarioConfig,
    StringArrival,
    StringDeparture,
    generate_scenario,
)

__all__ = [
    "SoakConfig",
    "SoakReport",
    "SoakStepRecord",
    "run_soak",
]

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class SoakConfig:
    """Full parameterization of one soak run (fingerprinted)."""

    scenario: str = "scenario1"
    n_services: int = 10
    n_machines: int = 6
    n_events: int = 40
    seed: int = 42
    budget: float = 0.25
    grace: float = 0.25
    initial_active: int = 5
    #: ``"service"`` (the full controller) or ``"shed-baseline"``
    mode: str = "service"
    events: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("service", "shed-baseline"):
            raise ModelError(
                f"mode must be 'service' or 'shed-baseline', got "
                f"{self.mode!r}"
            )
        if self.n_services < 1 or self.n_machines < 2:
            raise ModelError("need >= 1 service and >= 2 machines")
        if not 0 <= self.initial_active <= self.n_services:
            raise ModelError(
                "initial_active must lie in [0, n_services]"
            )
        if self.n_events < 1:
            raise ModelError("n_events must be >= 1")

    def fingerprint(self) -> str:
        return fingerprint_payload(dataclasses.asdict(self))


@dataclass
class SoakStepRecord:
    """One finished soak step."""

    step: int
    event_kind: str
    worth: float
    slackness: float
    deadline_hit: bool
    elapsed_seconds: float
    tier_used: str | None
    health: str
    n_active: int
    n_shed: int
    n_rejected: int
    #: committed state after the step
    active: tuple[int, ...]
    placements: dict[int, tuple[int, ...]]


def _step_record(step: int, outcome: Mapping[str, Any]) -> SoakStepRecord:
    """A soak step from a journal-format outcome record."""
    if outcome.get("status") != "ok":
        raise ModelError(
            f"soak step {step} had failed: {outcome.get('error')}"
        )
    return SoakStepRecord(
        step=step,
        event_kind=str(outcome["event_kind"]),
        worth=float(outcome["worth"]),
        slackness=float(outcome["slackness"]),
        deadline_hit=bool(outcome["deadline_hit"]),
        elapsed_seconds=float(outcome["elapsed_seconds"]),
        tier_used=outcome.get("tier_used"),
        health=str(outcome["health"]),
        n_active=int(outcome["n_active"]),
        n_shed=int(outcome["n_shed"]),
        n_rejected=int(outcome["n_rejected"]),
        active=tuple(int(s) for s in outcome["active"]),
        placements={
            int(sid): tuple(int(j) for j in machines)
            for sid, machines in outcome["placements"].items()
        },
    )


@dataclass
class SoakReport:
    """Aggregated soak metrics."""

    config: SoakConfig
    records: list[SoakStepRecord]

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def total_worth(self) -> float:
        """Worth retained summed over all steps (the headline metric)."""
        return float(sum(r.worth for r in self.records))

    @property
    def deadline_hit_rate(self) -> float:
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.deadline_hit) / len(
            self.records
        )

    @property
    def max_elapsed(self) -> float:
        if not self.records:
            return 0.0
        return max(r.elapsed_seconds for r in self.records)

    def latency_percentiles(self) -> dict[str, tuple[float, float]]:
        """(p50, p99) request latency, per winning tier."""
        by_tier: dict[str, list[float]] = {}
        for r in self.records:
            by_tier.setdefault(r.tier_used or "none", []).append(
                r.elapsed_seconds
            )
        return {
            tier: (
                float(np.percentile(latencies, 50)),
                float(np.percentile(latencies, 99)),
            )
            for tier, latencies in sorted(by_tier.items())
        }

    def health_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.health] = counts.get(r.health, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"soak [{self.config.mode}] scenario={self.config.scenario} "
            f"seed={self.config.seed}: {self.n_steps} steps",
            f"  worth retained (total): {self.total_worth:g}",
            f"  deadline-hit rate:      {self.deadline_hit_rate:.1%} "
            f"(budget {self.config.budget:g}s, max elapsed "
            f"{self.max_elapsed:.3f}s)",
            f"  shed: {sum(r.n_shed for r in self.records)}  rejected: "
            f"{sum(r.n_rejected for r in self.records)}",
            f"  health: {self.health_counts()}",
        ]
        for tier, (p50, p99) in self.latency_percentiles().items():
            lines.append(
                f"  latency[{tier}]: p50={p50 * 1e3:.1f}ms "
                f"p99={p99 * 1e3:.1f}ms"
            )
        return "\n".join(lines)


def build_catalog(config: SoakConfig) -> SystemModel:
    """The mission catalog the soak runs against (deterministic)."""
    params = dataclasses.replace(
        get_scenario(config.scenario),
        n_strings=config.n_services,
        n_machines=config.n_machines,
    )
    return generate_model(params, seed=config.seed)


def initial_services(config: SoakConfig, catalog: SystemModel) -> list[int]:
    """Initially-active services: highest worth first (deterministic)."""
    order = sorted(
        range(catalog.n_strings),
        key=lambda k: (-catalog.strings[k].worth, k),
    )
    return sorted(order[: config.initial_active])


class _ShedBaseline:
    """Bare ShedPolicy reference: one MWF solve, then carry-forward only.

    Arrivals join the active set but are never (re)mapped — the baseline
    has no solver in the loop, exactly the "do nothing but shed" lower
    bound the service must beat on retained worth.
    """

    def __init__(self, catalog: SystemModel, initial: Sequence[int]) -> None:
        self.catalog = catalog
        self.active = set(initial)
        self._fault_events: list[FaultEvent] = []
        self._drift = np.ones(catalog.n_strings)
        self.placements: dict[int, tuple[int, ...]] = {}
        active = tuple(sorted(self.active))
        if active:
            model = build_working_model(
                catalog, active, self._drift, self._fault_events
            )
            result = get_heuristic("mwf")(model)
            self.placements = {
                active[local]: tuple(
                    int(j) for j in result.allocation.machines_for(local)
                )
                for local in result.allocation
            }

    def handle(self, event: MissionEvent) -> RequestOutcome:
        started = time.monotonic()
        if isinstance(event, StringArrival):
            if 0 <= event.service_id < self.catalog.n_strings:
                self.active.add(event.service_id)
        elif isinstance(event, StringDeparture):
            self.active.discard(event.service_id)
            self.placements.pop(event.service_id, None)
        elif isinstance(event, PlatformFault):
            try:
                normalize_faults(
                    [*self._fault_events, event.fault],
                    self.catalog.n_machines,
                )
                self._fault_events.append(event.fault)
            except ModelError:
                pass
        elif isinstance(event, FaultsCleared):
            self._fault_events.clear()
        elif isinstance(event, DriftStep):
            self._drift = np.clip(
                self._drift * np.asarray(event.step_factors), 0.1, 10.0
            )

        active = tuple(sorted(self.active))
        if not active:
            self.placements.clear()
            worth, slackness, n_shed = 0.0, 1.0, 0
        else:
            model = build_working_model(
                self.catalog, active, self._drift, self._fault_events
            )
            previous = Allocation(
                model,
                {
                    local: np.asarray(self.placements[sid], dtype=np.int64)
                    for local, sid in enumerate(active)
                    if sid in self.placements
                },
            )
            state, shed = carry_forward(model, previous)
            worth = state.total_worth
            slackness = state.slackness()
            n_shed = len(shed)
            self.placements = {
                active[local]: tuple(
                    int(j) for j in state.machines_for(local)
                )
                for local in state.mapped_ids
            }
        return RequestOutcome(
            seq=0,
            event_kind=event.kind,
            event_detail=event.describe(),
            n_active=len(self.active),
            worth=worth,
            slackness=slackness,
            deadline_hit=True,
            elapsed_seconds=time.monotonic() - started,
            budget_seconds=0.0,
            tier_used="shed",
            health="NORMAL",
            shed=(),
            note="baseline",
        )

    def allocation_snapshot(self) -> dict[int, tuple[int, ...]]:
        return dict(self.placements)


_Runner = _ShedBaseline | MissionController | DurableMissionController


@contextmanager
def _open_runner(
    config: SoakConfig,
    catalog: SystemModel,
    initial: Sequence[int],
    journal_dir: str | Path | None,
) -> Iterator[tuple[_Runner, list[SoakStepRecord]]]:
    """The step runner, plus the records of steps it already applied.

    Only a journaled runner has applied steps: the
    :class:`~repro.service.durable.DurableMissionController` constructor
    recovers them state-only, and their records come from the journaled
    outcome records (no solve re-run).  The journal is closed on exit,
    also when a step raises.
    """
    service_config = ServiceConfig(
        default_budget=config.budget, grace=config.grace
    )
    if journal_dir is None:
        if config.mode == "shed-baseline":
            yield _ShedBaseline(catalog, initial), []
            return
        controller = MissionController(
            catalog, service_config, rng=config.seed + 2
        )
        controller.activate(initial)
        yield controller, []
        return
    if config.mode != "service":
        raise ModelError("journal_dir requires mode='service'")
    with DurableMissionController(
        catalog,
        service_config,
        rng=config.seed + 2,
        journal_dir=journal_dir,
        initial_active=initial,
        fingerprint=config.fingerprint(),
    ) as durable:
        recovery = durable.recovery
        if recovery.snapshot_seq > 0:
            raise ModelError(
                "journaled soak does not compact its journal; this "
                "directory holds a snapshot from another workflow"
            )
        if recovery.applied > config.n_events:
            raise ModelError(
                f"journal holds {recovery.applied} events but the config "
                f"expects {config.n_events}"
            )
        yield durable, [
            _step_record(int(outcome["seq"]) - 1, outcome)
            for outcome in recovery.tail_outcomes
        ]


def run_soak(
    config: SoakConfig,
    progress: ProgressFn | None = None,
    journal_dir: str | Path | None = None,
) -> SoakReport:
    """Replay the soak scenario; return the aggregated report.

    With ``journal_dir`` the run sits on the fsync'd write-ahead journal
    (:mod:`repro.service.durable`): every event is committed before it
    is applied, so ``kill -9`` at *any* instruction loses at most the
    event whose commit never completed, and the next run with the same
    ``journal_dir`` recovers bit-identically and continues.
    """
    catalog = build_catalog(config)
    initial = initial_services(config, catalog)
    events = generate_scenario(
        catalog,
        config.n_events,
        rng=config.seed + 1,
        config=config.events,
    )
    with _open_runner(config, catalog, initial, journal_dir) as (
        runner,
        records,
    ):
        for step in range(len(records), config.n_events):
            outcome = runner.handle(events[step])
            records.append(
                _step_record(
                    step,
                    outcome_record(
                        outcome,
                        runner.active,
                        runner.allocation_snapshot(),
                    ),
                )
            )
            if progress is not None:
                progress(step, config.n_events)
    return SoakReport(config=config, records=records)
