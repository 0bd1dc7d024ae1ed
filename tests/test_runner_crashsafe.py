"""Crash-safety tests for the experiment runner.

Covers the failure-capture path (serial and ``as_completed`` parallel
collection), the per-run timeout, and JSON checkpoint/resume — in
particular the acceptance scenario: kill a checkpointed experiment
mid-run, re-invoke it, and verify the finished runs are not recomputed.
"""

import json
import time

import pytest

import repro.experiments.runner as runner_mod
from repro.core.exceptions import ModelError
from repro.experiments.runner import (
    ExperimentCheckpoint,
    ExperimentConfig,
    ExperimentScale,
    RunRecord,
    RunTimeoutError,
    _run_deadline,
    config_fingerprint,
    record_from_dict,
    record_to_dict,
    run_experiment,
)
from repro.workload import SCENARIO_3

TINY = ExperimentScale(
    name="tiny",
    n_runs=3,
    size_factor=0.25,
    population_size=8,
    max_iterations=20,
    max_stale_iterations=10,
    n_trials=1,
)


def _deterministic_part(record: RunRecord) -> dict:
    """Per-heuristic (worth, slackness, n_mapped) — runtime is wall-clock."""
    return {
        name: (worth, slack, n)
        for name, (worth, slack, _rt, n) in record.results.items()
    }


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scenario=SCENARIO_3.scaled(n_strings=8, n_machines=4),
        heuristics=("mwf",),
        scale=TINY,
        metric="worth",
        compute_ub=False,
        base_seed=4_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestFailureCapture:
    def test_serial_failure_recorded_others_kept(self, monkeypatch):
        real = runner_mod._run_one

        def flaky(config, run_index, run_timeout=None):
            if run_index == 1:
                raise RuntimeError("simulated crash")
            return real(config, run_index, run_timeout)

        monkeypatch.setattr(runner_mod, "_run_one", flaky)
        outcome = run_experiment(tiny_config())
        assert [r.run_index for r in outcome.records] == [0, 2]
        assert len(outcome.failures) == 1
        assert outcome.failures[0].run_index == 1
        assert "RuntimeError: simulated crash" in outcome.failures[0].error
        assert not outcome.complete

    def test_parallel_worker_exception_recorded(self):
        # an unknown heuristic raises KeyError inside each worker
        outcome = run_experiment(tiny_config(heuristics=("nope",)),
                                 n_workers=2)
        assert outcome.records == []
        assert len(outcome.failures) == TINY.n_runs
        assert all("KeyError" in f.error for f in outcome.failures)
        assert not outcome.complete

    def test_parallel_success_is_complete_and_sorted(self):
        outcome = run_experiment(tiny_config(), n_workers=2)
        assert outcome.complete
        assert [r.run_index for r in outcome.records] == [0, 1, 2]

    def test_parallel_matches_serial(self):
        config = tiny_config()
        serial = run_experiment(config)
        parallel = run_experiment(config, n_workers=2)
        for a, b in zip(serial.records, parallel.records):
            assert _deterministic_part(a) == _deterministic_part(b)

    def test_progress_counts_attempted_runs(self, monkeypatch):
        def always_fail(config, run_index, run_timeout=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_mod, "_run_one", always_fail)
        seen = []
        outcome = run_experiment(
            tiny_config(), progress=lambda d, n: seen.append((d, n))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert len(outcome.failures) == 3


class TestRunTimeout:
    def test_hung_run_becomes_failure(self, monkeypatch):
        def hang(config, run_index):
            time.sleep(5.0)

        monkeypatch.setattr(runner_mod, "_run_one_inner", hang)
        outcome = run_experiment(tiny_config(), run_timeout=0.05)
        assert outcome.records == []
        assert len(outcome.failures) == TINY.n_runs
        assert all("RunTimeoutError" in f.error for f in outcome.failures)

    def test_generous_timeout_is_harmless(self):
        outcome = run_experiment(tiny_config(), run_timeout=120.0)
        assert outcome.complete

    def test_deadline_rejects_nonpositive(self):
        with pytest.raises(ModelError, match="positive"):
            with _run_deadline(-1.0):
                pass

    def test_deadline_none_is_noop(self):
        with _run_deadline(None):
            pass

    def test_deadline_raises_in_body(self):
        with pytest.raises(RunTimeoutError):
            with _run_deadline(0.05):
                time.sleep(5.0)


class TestCheckpoint:
    def test_record_round_trip(self):
        record = RunRecord(
            run_index=2,
            seed=4_002,
            results={"mwf": (10.0, 0.5, 0.01, 4)},
            ub_value=12.5,
            ub_runtime=0.2,
        )
        assert record_from_dict(record_to_dict(record)) == record
        no_ub = RunRecord(run_index=0, seed=1, results={"tf": (1, 0, 0, 1)})
        restored = record_from_dict(record_to_dict(no_ub))
        assert restored.ub_value is None

    def test_kill_and_resume_skips_finished_runs(
        self, tmp_path, monkeypatch
    ):
        config = tiny_config()
        ckpt = tmp_path / "ck.json"
        calls: list[int] = []
        real = runner_mod._run_one

        def counting(config, run_index, run_timeout=None):
            calls.append(run_index)
            return real(config, run_index, run_timeout)

        monkeypatch.setattr(runner_mod, "_run_one", counting)

        class Killed(Exception):
            pass

        def kill_after_two(done, total):
            if done == 2:
                raise Killed

        with pytest.raises(Killed):
            run_experiment(
                config, progress=kill_after_two, checkpoint=str(ckpt)
            )
        assert calls == [0, 1]
        # the finished runs were persisted *before* the kill
        persisted = json.loads(ckpt.read_text())
        assert [r["run_index"] for r in persisted["records"]] == [0, 1]

        calls.clear()
        outcome = run_experiment(config, checkpoint=str(ckpt))
        assert calls == [2]  # only the missing run was recomputed
        assert outcome.complete
        assert [r.run_index for r in outcome.records] == [0, 1, 2]

    def test_resumed_records_match_fresh_run(self, tmp_path):
        config = tiny_config()
        ckpt = tmp_path / "ck.json"
        first = run_experiment(config, checkpoint=str(ckpt))
        resumed = run_experiment(config, checkpoint=str(ckpt))
        fresh = run_experiment(config)
        for a, b, c in zip(first.records, resumed.records, fresh.records):
            assert (
                _deterministic_part(a)
                == _deterministic_part(b)
                == _deterministic_part(c)
            )

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        run_experiment(tiny_config(), checkpoint=str(ckpt))
        other = tiny_config(base_seed=9_999)
        with pytest.raises(ModelError, match="different experiment"):
            run_experiment(other, checkpoint=str(ckpt))

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        ckpt.write_text("not json at all {")
        with pytest.raises(ModelError, match="cannot read"):
            ExperimentCheckpoint.open(ckpt, tiny_config())

    def test_foreign_document_rejected(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ModelError, match="not a"):
            ExperimentCheckpoint.open(ckpt, tiny_config())

    def test_out_of_range_records_dropped_on_open(self, tmp_path):
        config = tiny_config()
        ckpt = ExperimentCheckpoint(
            tmp_path / "ck.json", config_fingerprint(config)
        )
        ckpt.add(RunRecord(run_index=7, seed=0,
                           results={"mwf": (1.0, 0.1, 0.0, 1)}))
        reopened = ExperimentCheckpoint.open(tmp_path / "ck.json", config)
        assert reopened.completed_indices == frozenset()

    def test_failures_are_not_persisted(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        outcome = run_experiment(
            tiny_config(heuristics=("nope",)), checkpoint=str(ckpt)
        )
        assert len(outcome.failures) == TINY.n_runs
        # no run completed, so nothing was ever flushed
        assert not ckpt.exists()
