"""Durability contract of the journaled mission controller.

The headline property: **recovery at any event prefix is bit-identical**
to the uninterrupted run — same ``allocation_snapshot()``, same
cumulative worth, same health-monitor state — and continuing from the
recovered state lands on the exact same final state.  Crashes are
simulated in-process by raising from journal hooks (the subprocess
SIGKILL variant lives in ``test_recovery_soak.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.service.cascade as cascade_mod
from repro.core.feasibility import analyze
from repro.experiments.recovery import TickClock
from repro.service.cascade import CascadeConfig
from repro.service.controller import ServiceConfig
from repro.service.durable import DurableMissionController
from repro.service.events import generate_scenario
from repro.service.health import HealthState
from repro.service.journal import JournalError, JournalHooks, encode_frame
from repro.service.soak import SoakConfig, build_catalog, initial_services

N_EVENTS = 6
SOAK = SoakConfig(
    n_services=6, n_machines=4, n_events=N_EVENTS, seed=7,
    initial_active=3,
)
CATALOG = build_catalog(SOAK)
INITIAL = initial_services(SOAK, CATALOG)
EVENTS = generate_scenario(
    CATALOG, N_EVENTS, rng=SOAK.seed + 1, config=SOAK.events
)


class _Crash(BaseException):
    """Simulated process death (not a ModelError — nothing catches it)."""


def make_controller(journal_dir, *, hooks=None, snapshot_every=None):
    return DurableMissionController(
        CATALOG,
        ServiceConfig(
            default_budget=60.0,
            grace=0.25,
            cascade=CascadeConfig(
                ga_population=12, ga_max_iterations=40, ga_max_stale=15
            ),
        ),
        rng=SOAK.seed + 2,
        clock=TickClock(),
        sleep=lambda _: None,
        journal_dir=journal_dir,
        initial_active=INITIAL,
        fingerprint="durable-test-v1",
        hooks=hooks,
        snapshot_every=snapshot_every,
    )


def state_of(controller):
    return (
        controller.allocation_snapshot(),
        controller.total_worth,
        controller.monitor.export_state(),
    )


@pytest.fixture(scope="module")
def reference():
    """State triple after every prefix of the uninterrupted run."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        controller = make_controller(tmp)
        prefixes = [state_of(controller)]
        for event in EVENTS:
            controller.handle(event)
            prefixes.append(state_of(controller))
        controller.close()
    return prefixes


@pytest.mark.parametrize("prefix", range(N_EVENTS + 1))
def test_recovery_at_every_prefix_is_bit_identical(
    tmp_path, reference, prefix
):
    controller = make_controller(tmp_path)
    controller.run(list(EVENTS[:prefix]))
    # abandoned, not closed: recovery may not depend on a clean close
    recovered = make_controller(tmp_path)
    assert recovered.recovery.conserved
    assert recovered.recovery.applied == prefix
    assert recovered.recovery.reapplied == 0
    assert state_of(recovered) == reference[prefix]
    # the recovered controller finishes the mission identically
    recovered.run(list(EVENTS[prefix:]))
    assert state_of(recovered) == reference[N_EVENTS]
    recovered.close()


def test_crash_before_commit_loses_only_the_uncommitted_event(
    tmp_path, reference
):
    def die(record):
        if record["type"] == "event" and record["seq"] == 3:
            raise _Crash

    controller = make_controller(tmp_path, hooks=JournalHooks(before_append=die))
    with pytest.raises(_Crash):
        controller.run(list(EVENTS))
    recovered = make_controller(tmp_path)
    assert recovered.recovery.applied == 2
    assert recovered.recovery.truncated_uncommitted == 0
    assert state_of(recovered) == reference[2]
    recovered.close()


def test_crash_mid_commit_truncates_the_torn_tail(tmp_path, reference):
    def die(record):
        if record["type"] == "event" and record["seq"] == 4:
            raise _Crash

    controller = make_controller(tmp_path, hooks=JournalHooks(mid_append=die))
    with pytest.raises(_Crash):
        controller.run(list(EVENTS))
    recovered = make_controller(tmp_path)
    assert recovered.recovery.truncated_uncommitted == 1
    assert recovered.recovery.applied == 3
    assert recovered.recovery.conserved
    assert state_of(recovered) == reference[3]
    recovered.close()


def test_crash_after_commit_reapplies_the_pending_event(
    tmp_path, reference
):
    """Committed but unapplied: the event must be re-served, and the
    re-solve must reproduce the original result bit-identically."""

    def die(record):
        if record["type"] == "outcome" and record["seq"] == 3:
            raise _Crash

    controller = make_controller(
        tmp_path, hooks=JournalHooks(before_append=die)
    )
    with pytest.raises(_Crash):
        controller.run(list(EVENTS))
    recovered = make_controller(tmp_path)
    assert recovered.recovery.reapplied == 1
    assert recovered.recovery.applied == 3
    assert state_of(recovered) == reference[3]
    recovered.run(list(EVENTS[3:]))
    assert state_of(recovered) == reference[N_EVENTS]
    recovered.close()


def test_torn_tail_fuzz_always_recovers_last_committed(
    tmp_path, reference
):
    """Random truncations and bit-flips of the WAL tail never lose a
    committed event and never poison recovery."""
    controller = make_controller(tmp_path / "run")
    controller.run(list(EVENTS[:4]))
    controller.close()
    wal = tmp_path / "run" / "wal.log"
    committed = wal.read_bytes()
    bogus = encode_frame(
        {"type": "event", "seq": 5, "event": {"kind": "faults-cleared"}}
    )
    rng = np.random.default_rng(99)
    for _ in range(12):
        if rng.random() < 0.5:
            cut = int(rng.integers(0, len(bogus)))
            damaged = bogus[:cut]
        else:
            flipped = bytearray(bogus)
            flipped[int(rng.integers(len(bogus)))] ^= 1 << int(
                rng.integers(8)
            )
            damaged = bytes(flipped)
        wal.write_bytes(committed + damaged)
        recovered = make_controller(tmp_path / "run")
        rec = recovered.recovery
        assert rec.conserved
        # either the damage was detected (truncated) or the frame
        # still parsed as the valid seq-5 event (re-applied); committed
        # state is identical either way up to seq 4
        assert rec.applied >= 4
        if rec.applied == 4:
            assert state_of(recovered) == reference[4]
        recovered.close()
        wal.write_bytes(committed)


def test_snapshot_every_compacts_and_recovers(tmp_path, reference):
    controller = make_controller(tmp_path, snapshot_every=2)
    controller.run(list(EVENTS))
    assert controller.stats["snapshots"] == N_EVENTS // 2
    controller.close()
    recovered = make_controller(tmp_path, snapshot_every=2)
    assert recovered.recovery.snapshot_seq == N_EVENTS
    assert recovered.recovery.applied == N_EVENTS
    assert state_of(recovered) == reference[N_EVENTS]
    recovered.close()


def test_reopen_with_different_fingerprint_refuses(tmp_path):
    make_controller(tmp_path).close()
    with pytest.raises(JournalError, match="different controller"):
        DurableMissionController(
            CATALOG,
            ServiceConfig(default_budget=60.0),
            rng=1,
            clock=TickClock(),
            sleep=lambda _: None,
            journal_dir=tmp_path,
            initial_active=INITIAL,
            fingerprint="some-other-config",
        )


def test_events_served_after_a_reopen_survive_the_next_reopen(
    tmp_path, reference
):
    """A clean reopen resumes the seq counter, so the events it serves
    next are journaled under fresh seqs rather than as duplicates."""
    k = 4
    controller = make_controller(tmp_path)
    controller.run(list(EVENTS[:k]))
    controller.close()
    reopened = make_controller(tmp_path)
    assert reopened.applied == k
    reopened.run(list(EVENTS[k:]))
    reopened.close()
    recovered = make_controller(tmp_path)
    assert recovered.recovery.applied == N_EVENTS
    assert recovered.recovery.duplicates_skipped == 0
    assert recovered.recovery.conserved
    assert state_of(recovered) == reference[N_EVENTS]
    recovered.close()


def test_recovery_replays_the_open_breaker_health_signal(
    tmp_path, monkeypatch
):
    """A tier that always raises trips its breaker; the health level
    that open breaker forced is part of the recovered state."""
    real = cascade_mod.get_heuristic

    def lookup(name):
        if name == "mwf":
            def broken(model, rng=None, **kwargs):
                raise RuntimeError("solver crashed")

            return broken
        return real(name)

    monkeypatch.setattr(cascade_mod, "get_heuristic", lookup)
    events = generate_scenario(
        CATALOG, 8, rng=SOAK.seed + 1, config=SOAK.events
    )
    controller = make_controller(tmp_path)
    controller.run(list(events))
    assert controller.health is not HealthState.NORMAL
    live = state_of(controller)
    controller.close()
    recovered = make_controller(tmp_path)
    assert recovered.recovery.applied == len(events)
    assert state_of(recovered) == live
    recovered.close()


@pytest.mark.parametrize("seed", [1, 1009])
def test_default_cascade_on_the_soak_stream(tmp_path, monkeypatch, seed):
    """The default cascade serving the ``SoakConfig`` stream: every final
    allocation is feasible and worth at least its carry-forward floor,
    and PSG runs only where no earlier tier placed every string."""
    real_solve = cascade_mod.SolverCascade.solve
    calls = []

    def recording_solve(self, model, deadline, *args, **kwargs):
        result = real_solve(self, model, deadline, *args, **kwargs)
        calls.append((kwargs["incumbent"], result))
        return result

    monkeypatch.setattr(cascade_mod.SolverCascade, "solve", recording_solve)
    config = SoakConfig()
    catalog = build_catalog(config)
    events = generate_scenario(
        catalog, config.n_events, rng=config.seed + 1, config=config.events
    )
    controller = DurableMissionController(
        catalog,
        # a budget no tier's wall-clock stop reaches: the same work per run
        ServiceConfig(default_budget=3_600.0, grace=0.0),
        rng=seed,
        journal_dir=tmp_path,
        initial_active=initial_services(config, catalog),
    )
    psg_runs = 0
    for event in events:
        n_calls = len(calls)
        outcome = controller.handle(event)
        inner = controller._inner
        active = tuple(sorted(inner.active))
        model = inner._working_model(active)
        allocation = inner._restricted_allocation(model, active)
        assert len(allocation) == len(active)
        assert analyze(allocation).feasible, outcome.seq
        assert allocation.total_worth() == outcome.worth
        if len(calls) == n_calls:  # no active service: nothing to solve
            assert outcome.tier_used is None
            continue
        floor, result = calls[-1]
        assert outcome.worth >= floor.fitness.worth, outcome.seq
        complete = len(floor.mapped_ids) == floor.allocation.model.n_strings
        for attempt in result.attempts:
            if attempt.tier == "psg":
                # skipped exactly where an earlier answer is complete,
                # so it runs (ok/timeout) only where worth is at stake
                assert (attempt.status == "skipped-incumbent") == complete
                psg_runs += attempt.status in ("ok", "timeout")
            elif attempt.result is not None:
                n = attempt.result.allocation.model.n_strings
                complete |= len(attempt.result.mapped_ids) == n
    controller.close()
    assert 0 < psg_runs < len(events)
