"""Durable mission controller: commit-before-apply over the WAL.

:class:`DurableMissionController` wraps a
:class:`~repro.service.controller.MissionController` with the
write-ahead journal (:mod:`repro.service.journal`) so that a process
crash — at *any* instruction — loses at most the one event whose
commit had not completed:

1. **commit**: the incoming event is framed, appended, and fsync'd
   (``{"type": "event", "seq", "budget", "event"}``).  From this point
   the event is durable: every future recovery will serve it.
2. **apply**: the inner controller serves the event (the solve).
3. **outcome**: the result and the committed post-state are appended
   (``{"type": "outcome", "seq", "status", ..., "active",
   "placements"}``).

Recovery (run by the constructor) rebuilds bit-identical state without
re-running a single solve: load the last snapshot, replay each (event,
outcome) pair state-only — fault accumulation and drift via
:meth:`~repro.service.controller.MissionController.apply_event_state`,
health via :meth:`~repro.service.health.HealthMonitor.observe` with the
recorded signals (slackness, deadline hit, open-breaker count) — then
restore the last committed placements wholesale.  This is also how
``repro soak --journal`` resumes (:mod:`repro.service.soak`).  At most
one trailing *event* record can lack an outcome (a crash between commit
and outcome); that event is re-served live, which is deterministic
because the per-request RNG is derived from the persisted
``(base_seed, seq)``.

What is **guaranteed** after recovery: ``allocation_snapshot()``,
cumulative worth, shed/rejected totals, and health-monitor state are
bit-identical to the uninterrupted run at the same applied count, and
the conservation invariant
``applied == (committed + truncated_uncommitted) - truncated_uncommitted``
holds (no committed event is ever lost or double-applied).

What is **not** guaranteed: the in-flight event whose commit never
completed (torn tail) is gone — callers that need exactly-once across
the commit boundary must retry idempotently; circuit-breaker and retry
state resets to closed (breakers are *load* signals, not mission
state — only the open-breaker count each outcome fed the health
monitor is journaled); wall-clock latencies (``elapsed_seconds``) of
replayed steps are the recorded ones, not re-measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.exceptions import ModelError
from ..core.model import SystemModel
from ..faults.events import fault_from_record, fault_to_record
from ..io_utils.checkpoint import fingerprint_payload
from ..io_utils.serialize import model_to_dict
from .controller import MissionController, RequestOutcome, ServiceConfig
from .diskchaos import DiskChaosPolicy
from .events import MissionEvent, event_from_record, event_to_record
from .health import HealthMonitor, HealthState
from .journal import JournalError, JournalHooks, JournalStore

__all__ = [
    "DurableMissionController",
    "RecoveryReport",
    "outcome_record",
]


@dataclass
class RecoveryReport:
    """What one recovery pass found and did.

    The conservation counter: every event the journal ever accepted is
    either **committed** (durable: compacted into the snapshot or a
    valid WAL frame) or **truncated_uncommitted** (a torn tail frame,
    discarded).  Recovery must apply exactly the committed ones::

        applied == (committed + truncated_uncommitted)
                   - truncated_uncommitted == committed
    """

    #: events compacted into the loaded snapshot
    snapshot_seq: int = 0
    #: durable events: snapshot_seq + valid WAL event records
    committed: int = 0
    #: events whose effect is reflected in the recovered state
    applied: int = 0
    #: committed events without an outcome record, re-served live
    reapplied: int = 0
    #: events whose (journaled) apply had failed with ModelError
    failed: int = 0
    #: torn/corrupt tail frames discarded by the scan
    truncated_uncommitted: int = 0
    #: valid frames skipped as duplicates (retry ghosts, stale
    #: pre-compaction records at or below the snapshot seq)
    duplicates_skipped: int = 0
    #: outcome records for the WAL tail, in seq order (includes the
    #: outcome of a re-applied trailing event)
    tail_outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Every event the journal ever accepted bytes for."""
        return self.committed + self.truncated_uncommitted

    @property
    def conserved(self) -> bool:
        """The zero-loss invariant (see class docstring)."""
        return self.applied == self.attempted - self.truncated_uncommitted


def outcome_record(
    outcome: RequestOutcome,
    active: Iterable[int],
    placements: Mapping[int, Sequence[int]],
    open_breakers: int = 0,
) -> dict[str, Any]:
    """The journal's ``outcome`` record for one successfully served event.

    ``active`` / ``placements`` are the committed post-state;
    ``open_breakers`` is the count the health monitor observed.
    """
    return {
        "type": "outcome",
        "seq": outcome.seq,
        "status": "ok",
        "event_kind": outcome.event_kind,
        "worth": outcome.worth,
        "slackness": outcome.slackness,
        "deadline_hit": outcome.deadline_hit,
        "elapsed_seconds": outcome.elapsed_seconds,
        "tier_used": outcome.tier_used,
        "health": outcome.health,
        "open_breakers": open_breakers,
        "n_active": outcome.n_active,
        "n_shed": len(outcome.shed),
        "n_rejected": len(outcome.rejected),
        "active": sorted(active),
        "placements": {
            str(sid): list(m) for sid, m in placements.items()
        },
    }


class DurableMissionController:
    """A :class:`MissionController` whose state survives ``kill -9``.

    Construction *is* recovery: the journal directory is opened (or
    created), a torn tail is truncated, and the surviving snapshot +
    WAL records are replayed deterministically; the result is reported
    on :attr:`recovery`.  After that, :meth:`handle` serves events with
    the commit-before-apply protocol.

    Parameters
    ----------
    catalog / config / rng / clock / sleep:
        As for :class:`MissionController`.  The derived base seed is
        persisted in the journal meta on first open, so recovery
        reproduces the per-request RNG stream even for entropy seeds.
    journal_dir:
        The durable store directory (meta + snapshot + WAL).
    initial_active:
        Services active before the first event (recovery re-activates
        them when no snapshot exists yet).
    snapshot_every:
        Auto-snapshot+compact after this many served events
        (``None`` = only on explicit :meth:`snapshot` calls).
    fingerprint:
        Configuration guard for the store; defaults to a hash of the
        catalog and ``initial_active``.  Pass one that also covers
        budgets/config when those vary between runs.
    chaos / hooks / fsync / max_append_attempts:
        Passed to :class:`~repro.service.journal.JournalStore`.
    """

    def __init__(
        self,
        catalog: SystemModel,
        config: ServiceConfig | None = None,
        rng: np.random.Generator | int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        *,
        journal_dir: str | Path,
        initial_active: Iterable[int] = (),
        snapshot_every: int | None = None,
        fingerprint: str | None = None,
        chaos: DiskChaosPolicy | None = None,
        hooks: JournalHooks | None = None,
        fsync: bool = True,
        max_append_attempts: int = 4,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ModelError("snapshot_every must be >= 1")
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self._initial_active = tuple(sorted(set(initial_active)))
        self._snapshot_every = snapshot_every
        if fingerprint is None:
            fingerprint = fingerprint_payload(
                {
                    "schema": "repro/durable-mission-v1",
                    "catalog": model_to_dict(catalog),
                    "initial_active": list(self._initial_active),
                }
            )
        # candidate base seed for a *fresh* store; on reopen the
        # persisted one wins, so entropy seeds recover deterministically
        candidate_seed = int(np.random.default_rng(rng).integers(2**32))
        self.store = JournalStore(
            journal_dir,
            fingerprint,
            chaos=chaos,
            hooks=hooks,
            fsync=fsync,
            max_append_attempts=max_append_attempts,
            extra={"base_seed": candidate_seed},
        )
        base_seed = int(self.store.meta_extra.get("base_seed", candidate_seed))
        self._inner = MissionController(
            catalog, self.config, rng=base_seed, clock=clock, sleep=sleep
        )
        # rederiving via default_rng(base_seed) would reseed; pin the
        # persisted stream root directly
        self._inner._base_seed = base_seed
        self.total_worth = 0.0
        self._applied = 0
        self._last_outcome_record: dict[str, Any] = {}
        self.recovery = self._recover()

    # -- delegated read surface ------------------------------------------------

    @property
    def active(self) -> set[int]:
        return self._inner.active

    @property
    def monitor(self) -> HealthMonitor:
        return self._inner.monitor

    @property
    def health(self) -> HealthState:
        return self._inner.health

    @property
    def applied(self) -> int:
        """Events whose effect is reflected in the current state."""
        return self._applied

    def allocation_snapshot(self) -> dict[int, tuple[int, ...]]:
        return self._inner.allocation_snapshot()

    @property
    def stats(self) -> dict[str, int]:
        """Journal I/O counters (appends, injected faults, repairs)."""
        return dict(self.store.stats)

    # -- serving ---------------------------------------------------------------

    def handle(
        self, event: MissionEvent, budget: float | None = None
    ) -> RequestOutcome:
        """Serve one event: commit, apply, journal the outcome."""
        seq = self._applied + 1
        self.store.append(
            {
                "type": "event",
                "seq": seq,
                "budget": budget,
                "event": event_to_record(event),
            }
        )
        outcome = self._apply_committed(event, budget, seq)
        if outcome is None:  # pragma: no cover - live failures re-raise
            raise JournalError("live apply returned no outcome")
        if (
            self._snapshot_every is not None
            and self._applied % self._snapshot_every == 0
        ):
            self.snapshot()
        return outcome

    def run(
        self,
        events: Sequence[MissionEvent],
        budget: float | None = None,
    ) -> list[RequestOutcome]:
        """Serve an event stream; one outcome per event."""
        return [self.handle(event, budget=budget) for event in events]

    def snapshot(self) -> None:
        """Snapshot full state and compact the WAL (crash-safe)."""
        self.store.write_snapshot(self._applied, self._export_state())

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "DurableMissionController":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- commit-before-apply ---------------------------------------------------

    def _apply_committed(
        self,
        event: MissionEvent,
        budget: float | None,
        seq: int,
        *,
        during_recovery: bool = False,
    ) -> RequestOutcome | None:
        """Apply an already-committed event and journal its outcome.

        The live path re-raises an apply failure after journaling it;
        the recovery path records it and moves on (the failure already
        happened once, before the crash).
        """
        inner = self._inner
        try:
            outcome = inner.handle(event, budget=budget)
        except ModelError as exc:
            self._applied = seq
            failure = {
                "type": "outcome",
                "seq": seq,
                "status": "failed",
                "error": str(exc),
                "active": sorted(inner.active),
                "placements": {
                    str(sid): list(m)
                    for sid, m in inner.placements.items()
                },
            }
            self.store.append(failure)
            self._last_outcome_record = failure
            if during_recovery:
                return None
            raise
        self._applied = seq
        self.total_worth += outcome.worth
        record = outcome_record(
            outcome,
            inner.active,
            inner.placements,
            # nothing touches the breakers between the monitor's
            # observe() and the return from handle()
            open_breakers=inner._open_breakers(),
        )
        self.store.append(record)
        self._last_outcome_record = record
        return outcome

    # -- snapshot state --------------------------------------------------------

    def _export_state(self) -> dict[str, Any]:
        inner = self._inner
        return {
            "active": sorted(inner.active),
            "placements": {
                str(sid): list(m) for sid, m in inner.placements.items()
            },
            "drift": [float(f) for f in inner._drift],
            "faults": [
                fault_to_record(f) for f in inner._fault_events
            ],
            "monitor": inner.monitor.export_state(),
            "total_worth": self.total_worth,
            "n_rejected_total": inner.n_rejected_total,
            "n_shed_total": inner.n_shed_total,
        }

    def _restore_state(self, seq: int, state: Mapping[str, Any]) -> None:
        inner = self._inner
        try:
            active = [int(s) for s in state["active"]]
            placements = {
                int(sid): tuple(int(j) for j in machines)
                for sid, machines in state["placements"].items()
            }
            inner.restore(active, placements, seq)
            inner._drift = np.asarray(
                [float(f) for f in state["drift"]], dtype=float
            )
            if inner._drift.shape != (self.catalog.n_strings,):
                raise ModelError(
                    "snapshot drift length does not match the catalog"
                )
            inner._fault_events = [
                fault_from_record(r) for r in state["faults"]
            ]
            inner.monitor.restore_state(state["monitor"])
            self.total_worth = float(state["total_worth"])
            inner.n_rejected_total = int(state["n_rejected_total"])
            inner.n_shed_total = int(state["n_shed_total"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"malformed journal snapshot state: {exc}"
            ) from exc
        self._applied = seq

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> RecoveryReport:
        store = self.store
        report = RecoveryReport(
            snapshot_seq=store.snapshot_seq,
            truncated_uncommitted=store.scan.truncated_frames,
            duplicates_skipped=store.scan.duplicates_skipped,
        )
        if store.snapshot_state is not None:
            self._restore_state(store.snapshot_seq, store.snapshot_state)
        else:
            self._inner.activate(self._initial_active)

        events: dict[int, dict[str, Any]] = {}
        outcomes: dict[int, dict[str, Any]] = {}
        for record in store.tail_records:
            seq = int(record["seq"])
            if seq <= store.snapshot_seq:
                # pre-compaction ghost: a crash hit the window between
                # snapshot write and WAL reset
                report.duplicates_skipped += 1
                continue
            kind = record.get("type")
            if kind == "event":
                events[seq] = record
            elif kind == "outcome":
                outcomes[seq] = record
            else:
                raise JournalError(
                    f"unknown journal record type {kind!r} (seq {seq})"
                )

        report.committed = store.snapshot_seq + len(events)
        report.applied = store.snapshot_seq

        ordered = sorted(events)
        pending = [seq for seq in ordered if seq not in outcomes]
        # commit-before-apply admits at most ONE event without an
        # outcome, and only at the very tail
        if len(pending) > 1 or (pending and pending[0] != ordered[-1]):
            raise JournalError(
                f"journal violates commit-before-apply: events "
                f"{pending} lack outcomes"
            )

        last_state: dict[str, Any] | None = None
        for seq in ordered:
            if seq in outcomes:
                outcome = outcomes[seq]
                event = event_from_record(events[seq]["event"])
                self._replay_outcome(event, outcome)
                report.applied = seq
                if outcome.get("status") == "failed":
                    report.failed += 1
                report.tail_outcomes.append(outcome)
                last_state = outcome
        if last_state is not None:
            self._restore_placements(report.applied, last_state)
        self._applied = report.applied

        for seq in pending:
            event = event_from_record(events[seq]["event"])
            budget = events[seq].get("budget")
            outcome = self._apply_committed(
                event,
                None if budget is None else float(budget),
                seq,
                during_recovery=True,
            )
            if outcome is None:
                report.failed += 1
            report.applied = seq
            report.reapplied += 1
            report.tail_outcomes.append(self._last_outcome_record)
        return report

    def _replay_outcome(
        self, event: MissionEvent, outcome: Mapping[str, Any]
    ) -> None:
        """State-only replay of one (event, outcome) pair — no solve."""
        inner = self._inner
        if outcome.get("status") == "failed":
            # the live apply raised before mutating state; only the
            # seq advanced (restored wholesale afterwards)
            return
        inner.apply_event_state(event)
        inner.monitor.observe(
            slackness=float(outcome["slackness"]),
            deadline_hit=bool(outcome["deadline_hit"]),
            # journals written before the count was recorded replay 0
            open_breakers=int(outcome.get("open_breakers", 0)),
        )
        self.total_worth += float(outcome["worth"])
        inner.n_shed_total += int(outcome["n_shed"])
        inner.n_rejected_total += int(outcome["n_rejected"])

    def _restore_placements(
        self, seq: int, outcome: Mapping[str, Any]
    ) -> None:
        inner = self._inner
        try:
            inner.restore(
                [int(s) for s in outcome["active"]],
                {
                    int(sid): tuple(int(j) for j in machines)
                    for sid, machines in outcome["placements"].items()
                },
                seq,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"malformed outcome record at seq {seq}: {exc}"
            ) from exc
