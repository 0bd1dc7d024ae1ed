"""Tests for the ``repro bench`` perf-record pipeline.

One quick single-trial benchmark run is shared module-wide (it is a
real PSG search, ~1s); everything else — schema shape, the CI
regression gate, persistence, and the CLI wiring — is checked against
that record or against hand-built ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import (
    BENCH_SCHEMA,
    compare_to_baseline,
    run_bench,
    run_state_micro,
    save_record,
)

RECORD_FIELDS = {
    "schema", "name", "created", "quick", "workload", "config",
    "wall_seconds", "evaluations", "evals_per_second", "best_fitness",
    "trial_fitnesses", "trial_failures", "profile_cache",
}


@pytest.fixture(scope="module")
def quick_record():
    return run_bench(name="psg", quick=True, seed=7, n_trials=1)


class TestRunBench:
    def test_record_schema(self, quick_record):
        assert set(quick_record) == RECORD_FIELDS
        assert quick_record["schema"] == BENCH_SCHEMA
        assert quick_record["name"] == "psg"
        assert quick_record["quick"] is True
        assert quick_record["workload"] == {
            "scenario": "scenario1",
            "n_strings": 25,
            "n_machines": 4,
            "seed": 7,
        }
        config = quick_record["config"]
        assert config["n_trials"] == 1
        assert config["population_size"] == 30

    def test_throughput_fields_consistent(self, quick_record):
        assert quick_record["wall_seconds"] > 0.0
        assert quick_record["evaluations"] > 0
        assert quick_record["evals_per_second"] == pytest.approx(
            quick_record["evaluations"] / quick_record["wall_seconds"]
        )
        assert quick_record["trial_failures"] == 0
        assert len(quick_record["trial_fitnesses"]) == 1

    def test_golden_fitness(self, quick_record):
        # Captured while the search still had a cached projection path.
        assert quick_record["best_fitness"] == {
            "worth": 853.0, "slackness": 0.12163748351374803,
        }
        assert quick_record["trial_fitnesses"] == [
            (853.0, 0.12163748351374803),
        ]

    def test_cache_telemetry_present(self, quick_record):
        profile = quick_record["profile_cache"]
        assert profile is not None
        assert 0.0 <= profile["hit_rate"] <= 1.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_bench(name="nope")


class TestBaselineGate:
    @staticmethod
    def record(rate):
        return {"evals_per_second": rate}

    def test_within_budget_passes(self):
        ok, message = compare_to_baseline(
            self.record(80.0), self.record(100.0), max_regression=0.30
        )
        assert ok
        assert "floor 70" in message

    def test_regression_fails(self):
        ok, message = compare_to_baseline(
            self.record(60.0), self.record(100.0), max_regression=0.30
        )
        assert not ok
        assert "-40.0%" in message

    def test_improvement_passes(self):
        ok, _ = compare_to_baseline(self.record(140.0), self.record(100.0))
        assert ok

    def test_zero_baseline_skips_gate(self):
        ok, message = compare_to_baseline(self.record(10.0), self.record(0.0))
        assert ok
        assert "gate skipped" in message

    def test_validates_max_regression(self):
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError):
                compare_to_baseline(
                    self.record(1.0), self.record(1.0), max_regression=bad
                )

    @staticmethod
    def micro_record(try_add, snap):
        return {
            "name": "state_micro",
            "try_add_ops_per_sec": try_add,
            "snapshot_restore_ops_per_sec": snap,
        }

    def test_state_micro_gates_both_metrics(self):
        base = self.micro_record(1_000.0, 10_000.0)
        ok, message = compare_to_baseline(
            self.micro_record(900.0, 9_000.0), base, max_regression=0.50
        )
        assert ok
        assert "try_add_ops_per_sec" in message
        assert "snapshot_restore_ops_per_sec" in message
        # either metric regressing alone fails the gate
        ok, _ = compare_to_baseline(
            self.micro_record(400.0, 9_000.0), base, max_regression=0.50
        )
        assert not ok
        ok, _ = compare_to_baseline(
            self.micro_record(900.0, 4_000.0), base, max_regression=0.50
        )
        assert not ok

    def test_other_benchmark_baseline_fails(self):
        # A psg record gated against the state_micro baseline compares
        # nothing; it must not pass as "skipped".
        record = {"name": "psg", "evals_per_second": 1e9}
        ok, message = compare_to_baseline(
            record, self.micro_record(1_000.0, 10_000.0)
        )
        assert not ok
        assert "state_micro" in message

    def test_no_gate_metric_compared_fails(self):
        base = self.micro_record(1_000.0, 10_000.0)
        ok, message = compare_to_baseline({"name": "state_micro"}, base)
        assert not ok
        assert "no gate metric" in message
        # one remaining metric is enough to gate
        record = {"name": "state_micro", "try_add_ops_per_sec": 900.0}
        ok, message = compare_to_baseline(record, base, max_regression=0.5)
        assert ok
        assert "snapshot_restore_ops_per_sec absent" in message

    def test_committed_state_micro_baseline_gates_both(self):
        path = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "baselines" / "BENCH_state_micro.json"
        )
        base = json.loads(path.read_text())
        record = dict(base)
        ok, message = compare_to_baseline(record, base)
        assert ok
        assert "skipped" not in message
        for metric in ("try_add_ops_per_sec", "snapshot_restore_ops_per_sec"):
            slow = dict(base, **{metric: base[metric] * 0.5})
            assert not compare_to_baseline(slow, base)[0]


class TestStateMicro:
    @pytest.fixture(scope="class")
    def micro_record(self):
        # tiny workload: the record shape is what matters here
        return run_state_micro(
            seed=7, n_strings=10, n_machines=3, rounds=2, snap_reps=5
        )

    def test_record_shape(self, micro_record):
        assert micro_record["schema"] == BENCH_SCHEMA
        assert micro_record["name"] == "state_micro"
        assert micro_record["workload"]["mapped_strings"] > 0
        for metric in ("try_add_ops_per_sec", "snapshot_restore_ops_per_sec"):
            assert micro_record[metric] > 0
        # one kernel: no per-backend breakdown and no batched half
        for gone in (
            "backends",
            "speedup",
            "batch_try_add_ops_per_sec",
            "batch_speedup_over_scalar",
        ):
            assert gone not in micro_record
        assert set(micro_record["config"]) == {"rounds", "snap_reps"}

    def test_gate_metrics_are_record(self, micro_record):
        """The gated scalar rates are the record kernel's medians."""
        assert micro_record["try_add_ops_per_sec"] == pytest.approx(
            1e6 / micro_record["try_add_us"]
        )
        assert micro_record["snapshot_restore_ops_per_sec"] == (
            pytest.approx(1e6 / micro_record["snapshot_restore_us"])
        )


class TestPersistence:
    def test_save_record_roundtrips(self, quick_record, tmp_path):
        path = tmp_path / "BENCH_psg.json"
        save_record(quick_record, path)
        # tuples (trial fitnesses) become JSON arrays: compare normalized.
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(quick_record)
        )


class TestCli:
    def test_bench_writes_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_psg.json"
        code = main([
            "bench", "--quick", "--seed", "7", "--trials", "1",
            "--json", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["schema"] == BENCH_SCHEMA
        assert "evals/sec" in capsys.readouterr().out

    def test_bench_gate_pass_and_fail(self, tmp_path, capsys):
        out = tmp_path / "BENCH_psg.json"
        baseline = tmp_path / "baseline.json"
        argv = [
            "bench", "--quick", "--seed", "7", "--trials", "1",
            "--json", str(out), "--baseline", str(baseline),
        ]
        baseline.write_text(json.dumps({"evals_per_second": 1e-6}))
        assert main(argv) == 0
        assert "PASS: " in capsys.readouterr().out
        baseline.write_text(json.dumps({"evals_per_second": 1e9}))
        assert main(argv) == 1
        assert "FAIL: " in capsys.readouterr().out

    def test_bench_default_writes_under_out_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        # Without --json, records land in --out-dir (default bench-out/),
        # never at the repository root.
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--seed", "7", "--trials", "1"])
        assert code == 0
        assert (tmp_path / "bench-out" / "BENCH_psg.json").is_file()
        assert not (tmp_path / "BENCH_psg.json").exists()
        capsys.readouterr()

    def test_state_micro_cli(self, tmp_path, capsys):
        out = tmp_path / "BENCH_state_micro.json"
        code = main([
            "bench", "--name", "state-micro", "--json", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["name"] == "state_micro"
        assert record["try_add_ops_per_sec"] > 0
        assert "scalar kernel: try_add" in capsys.readouterr().out
