"""Resilient online allocation service (the shipboard mission loop).

The paper allocates once, offline.  A ship under way faces arrivals,
departures, battle damage, and workload drift — and needs a feasible
allocation *now*, not when the GA converges.  This package wraps the
repository's heuristics in an event-driven mission controller that
answers every request within a wall-clock deadline and degrades
gracefully under pressure:

* :mod:`repro.service.deadline` — per-request monotonic budgets;
* :mod:`repro.service.cascade` — the anytime solver cascade
  (mwf+ls → mwf → psg → tf) under a shrinking deadline: the GA runs
  only where the greedy tiers leave a string unplaced, preempted via
  ``StoppingRules.max_wall_seconds``;
* :mod:`repro.service.breaker` / :mod:`repro.parallel.retry` — per-tier
  circuit breakers and jittered-backoff retries;
* :mod:`repro.service.admission` — worth-priority admission queue and
  slack-floor load shedding;
* :mod:`repro.service.health` — the NORMAL → DEGRADED → CRITICAL state
  machine throttling cascade tiers and admission;
* :mod:`repro.service.controller` — the mission controller tying it
  together;
* :mod:`repro.service.events` — the mission event vocabulary (JSON
  round-trippable) and a seeded scenario generator;
* :mod:`repro.service.journal` — the length+CRC32-framed, fsync'd
  write-ahead log with snapshot+compaction;
* :mod:`repro.service.diskchaos` — seeded storage-fault injection
  (torn writes, fsync errors, ENOSPC, duplicated frames);
* :mod:`repro.service.durable` — :class:`DurableMissionController`,
  the commit-before-apply wrapper whose recovery replays the journal
  to bit-identical state;
* :mod:`repro.service.soak` — the long-horizon soak harness behind
  ``repro soak``, resumable on the write-ahead journal.

See ``docs/service.md`` for the architecture walk-through and the
durability contract.
"""

from ..parallel.retry import RetryError, RetryPolicy, backoff_delays, retry_call
from .admission import (
    QueuedRequest,
    RequestQueue,
    plan_shedding,
    shed_order,
)
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .cascade import (
    DEFAULT_TIERS,
    AttemptRecord,
    CascadeConfig,
    CascadeResult,
    SolverCascade,
    TierSpec,
)
from .controller import (
    MissionController,
    RequestOutcome,
    ServiceConfig,
    build_working_model,
)
from .deadline import Deadline
from .diskchaos import DiskChaosPolicy, DiskFault
from .durable import DurableMissionController, RecoveryReport
from .events import (
    DriftStep,
    FaultsCleared,
    MissionEvent,
    PlatformFault,
    ScenarioConfig,
    StringArrival,
    StringDeparture,
    event_from_record,
    event_to_record,
    generate_scenario,
)
from .health import (
    DEFAULT_POLICIES,
    HealthConfig,
    HealthMonitor,
    HealthState,
    StatePolicy,
)
from .journal import (
    JOURNAL_MAGIC,
    JournalError,
    JournalHooks,
    JournalScan,
    JournalStore,
    encode_frame,
    scan_journal,
)
from .soak import SoakConfig, SoakReport, SoakStepRecord, run_soak

__all__ = [
    "DEFAULT_POLICIES",
    "DEFAULT_TIERS",
    "AttemptRecord",
    "BreakerConfig",
    "BreakerState",
    "CascadeConfig",
    "CascadeResult",
    "CircuitBreaker",
    "Deadline",
    "DiskChaosPolicy",
    "DiskFault",
    "DriftStep",
    "DurableMissionController",
    "FaultsCleared",
    "HealthConfig",
    "HealthMonitor",
    "HealthState",
    "JOURNAL_MAGIC",
    "JournalError",
    "JournalHooks",
    "JournalScan",
    "JournalStore",
    "MissionController",
    "MissionEvent",
    "PlatformFault",
    "QueuedRequest",
    "RecoveryReport",
    "RequestOutcome",
    "RequestQueue",
    "RetryError",
    "RetryPolicy",
    "ScenarioConfig",
    "ServiceConfig",
    "SoakConfig",
    "SoakReport",
    "SoakStepRecord",
    "SolverCascade",
    "StatePolicy",
    "StringArrival",
    "StringDeparture",
    "TierSpec",
    "backoff_delays",
    "build_working_model",
    "encode_frame",
    "event_from_record",
    "event_to_record",
    "generate_scenario",
    "plan_shedding",
    "retry_call",
    "run_soak",
    "scan_journal",
    "shed_order",
]
