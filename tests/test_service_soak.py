"""Soak-harness tests: the acceptance gate (deadlines held, baseline
beaten), resume from the write-ahead journal (in-process kill and a
real ``kill -9`` subprocess), and report aggregation.

The resume tests pin the cascade to the deterministic greedy tiers
(mwf/tf) by patching the harness's ``ServiceConfig`` hook: with no
wall-clock-truncated GA in the loop, a resumed run must be
*bit-identical* to an uninterrupted one, which is asserted exactly.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.service.soak as soak_mod
from repro.core.exceptions import ModelError
from repro.service import (
    CascadeConfig,
    MissionController,
    ServiceConfig,
    SoakConfig,
    TierSpec,
    run_soak,
)
from repro.service.soak import (
    SoakStepRecord,
    build_catalog,
    initial_services,
)

SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: the deterministic-resume protocol; the SIGKILL child re-creates it
#: from these exact kwargs (the journal fingerprint must match)
KILL_KWARGS = dict(
    scenario="scenario1",
    n_services=6,
    n_machines=5,
    n_events=10,
    seed=13,
    budget=0.2,
    grace=0.2,
    initial_active=3,
)

GREEDY_TIERS = (
    TierSpec("mwf", share=0.5),
    TierSpec("tf", share=1.0, guaranteed=True),
)


def _greedy_service_config(default_budget: float, grace: float):
    return ServiceConfig(
        default_budget=default_budget,
        grace=grace,
        cascade=CascadeConfig(tiers=GREEDY_TIERS),
    )


@pytest.fixture
def greedy_cascade(monkeypatch):
    """Pin the soak controller to the deterministic greedy tiers."""
    monkeypatch.setattr(soak_mod, "ServiceConfig", _greedy_service_config)


def record_key(record: SoakStepRecord):
    """The timing-independent part of a step record."""
    return (
        record.step, record.event_kind, record.worth, record.slackness,
        record.tier_used, record.n_active, record.active,
        record.placements,
    )


class Killed(Exception):
    pass


def count_handled(monkeypatch) -> list[str]:
    """Record the kind of every event a controller actually serves."""
    handled: list[str] = []
    real = MissionController.handle

    def counting(self, event, budget=None):
        handled.append(event.kind)
        return real(self, event, budget=budget)

    monkeypatch.setattr(MissionController, "handle", counting)
    return handled


# ---------------------------------------------------------------------------
# configuration and scaffolding
# ---------------------------------------------------------------------------


class TestSoakConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            SoakConfig(mode="nonsense")
        with pytest.raises(ModelError):
            SoakConfig(n_services=0)
        with pytest.raises(ModelError):
            SoakConfig(n_machines=1)
        with pytest.raises(ModelError):
            SoakConfig(n_services=4, initial_active=5)
        with pytest.raises(ModelError):
            SoakConfig(n_events=0)

    def test_fingerprint_tracks_the_protocol(self):
        base = SoakConfig(**KILL_KWARGS)
        assert base.fingerprint() == SoakConfig(**KILL_KWARGS).fingerprint()
        other = SoakConfig(**{**KILL_KWARGS, "seed": 99})
        assert base.fingerprint() != other.fingerprint()

    def test_build_catalog_is_deterministic(self):
        config = SoakConfig(**KILL_KWARGS)
        first = build_catalog(config)
        again = build_catalog(config)
        assert first.n_strings == config.n_services
        assert first.n_machines == config.n_machines
        assert [s.worth for s in first.strings] == [
            s.worth for s in again.strings
        ]

    def test_initial_services_picks_highest_worth(self):
        config = SoakConfig(**KILL_KWARGS)
        catalog = build_catalog(config)
        initial = initial_services(config, catalog)
        assert len(initial) == config.initial_active
        assert initial == sorted(initial)
        chosen = min(catalog.strings[k].worth for k in initial)
        skipped = max(
            catalog.strings[k].worth
            for k in range(catalog.n_strings)
            if k not in initial
        )
        assert chosen >= skipped


# ---------------------------------------------------------------------------
# the acceptance gate (full default cascade, GA tier included)
# ---------------------------------------------------------------------------


class TestSoakAcceptance:
    @pytest.fixture(scope="class")
    def config(self):
        return SoakConfig(
            scenario="scenario1", n_services=8, n_machines=5,
            n_events=10, seed=7, budget=0.4, grace=0.4,
            initial_active=4,
        )

    @pytest.fixture(scope="class")
    def service_report(self, config):
        return run_soak(config)

    def test_deadlines_are_hit_and_never_blow_the_grace(
        self, config, service_report
    ):
        assert service_report.n_steps == config.n_events
        assert service_report.deadline_hit_rate >= 0.99
        # the hard latency contract: no request may block past
        # budget + grace (the guaranteed tier is microseconds)
        assert service_report.max_elapsed <= config.budget + config.grace

    def test_service_retains_at_least_the_shed_baseline_worth(
        self, config, service_report
    ):
        baseline = run_soak(
            dataclasses.replace(config, mode="shed-baseline")
        )
        assert baseline.n_steps == service_report.n_steps
        assert (
            service_report.total_worth >= baseline.total_worth - 1e-9
        )

    def test_report_aggregation(self, service_report):
        percentiles = service_report.latency_percentiles()
        assert percentiles  # at least one winning tier
        for p50, p99 in percentiles.values():
            assert 0.0 <= p50 <= p99
        health = service_report.health_counts()
        assert sum(health.values()) == service_report.n_steps
        summary = service_report.summary()
        assert "worth retained" in summary
        assert "deadline-hit rate" in summary


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class TestSoakCheckpoint:
    """The write-ahead journal is the soak's checkpoint."""

    def test_completed_run_resumes_without_any_recompute(
        self, tmp_path, monkeypatch, greedy_cascade
    ):
        config = SoakConfig(**KILL_KWARGS)
        journal = tmp_path / "journal"
        first = run_soak(config, journal_dir=journal)

        handled = count_handled(monkeypatch)
        resumed = run_soak(config, journal_dir=journal)
        assert handled == []  # every step came from the journal
        assert list(map(record_key, resumed.records)) == list(
            map(record_key, first.records)
        )

    def test_kill_and_resume_recomputes_no_finished_step(
        self, tmp_path, monkeypatch, greedy_cascade
    ):
        config = SoakConfig(**KILL_KWARGS)
        journal = tmp_path / "journal"
        handled = count_handled(monkeypatch)

        def kill_after_four(step: int, total: int) -> None:
            if step == 3:
                raise Killed

        with pytest.raises(Killed):
            run_soak(config, journal_dir=journal, progress=kill_after_four)
        assert len(handled) == 4

        handled.clear()
        resumed = run_soak(config, journal_dir=journal)
        # only the unfinished steps were served
        assert len(handled) == config.n_events - 4
        assert resumed.n_steps == config.n_events

        # and the resumed run is bit-identical to an uninterrupted one
        fresh = run_soak(config)
        assert list(map(record_key, resumed.records)) == list(
            map(record_key, fresh.records)
        )

        # the events served after the reopen are durable too
        handled.clear()
        rerun = run_soak(config, journal_dir=journal)
        assert handled == []
        assert list(map(record_key, rerun.records)) == list(
            map(record_key, fresh.records)
        )

    def test_checkpoint_rejects_a_different_protocol(
        self, tmp_path, greedy_cascade
    ):
        journal = tmp_path / "journal"
        run_soak(SoakConfig(**KILL_KWARGS), journal_dir=journal)
        other = SoakConfig(**{**KILL_KWARGS, "seed": 99})
        with pytest.raises(ModelError):
            run_soak(other, journal_dir=journal)

    def test_sigkill_subprocess_then_resume(
        self, tmp_path, monkeypatch, greedy_cascade
    ):
        """A real ``kill -9`` mid-soak forfeits no applied step: the
        parent resumes from the journal, recomputes no finished step,
        and lands on the uninterrupted result."""
        journal = tmp_path / "journal"
        child = textwrap.dedent(
            f"""
            import os, signal
            import repro.service.soak as soak_mod
            from repro.service import (
                CascadeConfig, ServiceConfig, SoakConfig, TierSpec,
                run_soak,
            )

            def greedy(default_budget, grace):
                return ServiceConfig(
                    default_budget=default_budget,
                    grace=grace,
                    cascade=CascadeConfig(tiers=(
                        TierSpec("mwf", share=0.5),
                        TierSpec("tf", share=1.0, guaranteed=True),
                    )),
                )

            soak_mod.ServiceConfig = greedy

            def kill_after_four(step, total):
                if step == 3:
                    os.kill(os.getpid(), signal.SIGKILL)

            run_soak(
                SoakConfig(**{KILL_KWARGS!r}),
                journal_dir={str(journal)!r},
                progress=kill_after_four,
            )
            raise SystemExit("unreachable: the child must have died")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC_ROOT, "PATH": os.environ["PATH"]},
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        handled = count_handled(monkeypatch)
        config = SoakConfig(**KILL_KWARGS)
        resumed = run_soak(config, journal_dir=journal)
        # the four finished steps survived the kill
        assert len(handled) == config.n_events - 4
        assert resumed.n_steps == config.n_events
        fresh = run_soak(config)
        assert list(map(record_key, resumed.records)) == list(
            map(record_key, fresh.records)
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestSoakCli:
    def _run(self, *argv: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, "-m", "repro", "soak", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC_ROOT, "PATH": os.environ["PATH"]},
            timeout=300,
        )

    def test_cli_service_soak_exits_zero(self, tmp_path):
        journal = tmp_path / "journal"
        proc = self._run(
            "--services", "6", "--machines", "5", "--events", "5",
            "--budget", "0.5", "--seed", "3",
            "--journal", str(journal),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "soak [service]" in proc.stdout
        assert (journal / "wal.log").exists()

    def test_cli_baseline_mode(self):
        proc = self._run(
            "--services", "6", "--machines", "5", "--events", "5",
            "--budget", "0.5", "--seed", "3", "--baseline",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "soak [shed-baseline]" in proc.stdout


class TestSoakJournal:
    """`run_soak(journal_dir=...)` rides the write-ahead journal."""

    def test_journaled_soak_recovers_identically(
        self, tmp_path, greedy_cascade
    ):
        config = SoakConfig(
            n_services=6, n_machines=4, n_events=6, seed=5,
            budget=5.0, initial_active=3,
        )
        first = run_soak(config, journal_dir=tmp_path / "j")
        again = run_soak(config, journal_dir=tmp_path / "j")
        assert [record_key(r) for r in again.records] == [
            record_key(r) for r in first.records
        ]
        assert again.total_worth == first.total_worth

    def test_journal_requires_service_mode(self, tmp_path):
        config = SoakConfig(
            n_services=6, n_machines=4, n_events=3, seed=5,
            mode="shed-baseline",
        )
        with pytest.raises(ModelError, match="mode='service'"):
            run_soak(config, journal_dir=tmp_path / "j")
