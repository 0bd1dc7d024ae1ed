"""Integration tests for the ablation studies (repro.experiments.ablations)."""

import pytest

from repro.experiments import (
    ExperimentScale,
    bias_sweep,
    crossover_ablation,
    seeding_ablation,
    stop_rule_ablation,
)

TINY = ExperimentScale(
    name="tiny",
    n_runs=2,
    size_factor=0.25,
    population_size=8,
    max_iterations=15,
    max_stale_iterations=10,
    n_trials=1,
)

#: Scale of the seeding-claim and crossover checks.
BENCH_TINY = ExperimentScale(
    name="bench-tiny",
    n_runs=2,
    size_factor=0.25,
    population_size=10,
    max_iterations=30,
    max_stale_iterations=15,
    n_trials=1,
)


class TestBiasSweep:
    def test_runs_over_grid(self):
        out = bias_sweep(scale=TINY, biases=(1.0, 1.6, 2.0))
        assert set(out["results"]) == {1.0, 1.6, 2.0}
        assert out["best_bias"] in (1.0, 1.6, 2.0)
        assert "bias" in out["table"]

    def test_cis_have_expected_n(self):
        out = bias_sweep(scale=TINY, biases=(1.6,))
        assert out["results"][1.6].n == 2


class TestSeedingAblation:
    def test_seeded_never_worse_in_expectation_floor(self):
        out = seeding_ablation(scale=TINY)
        assert "psg" in out and "seeded_psg" in out
        # difference CI computed over paired runs
        assert out["difference"].n == 2
        assert "seeded" in out["table"]

    def test_seeded_comparable_to_unseeded(self):
        # paper: comparable performance — the seeded variant should not be
        # dramatically worse (it starts from at-least-as-good seeds).
        out = seeding_ablation(scale=BENCH_TINY)
        assert out["seeded_psg"].mean >= 0.5 * out["psg"].mean


class TestStopRuleAblation:
    def test_skip_dominates_stop(self):
        out = stop_rule_ablation(scale=TINY)
        # skip-ahead can only add strings on the same ordering
        assert out["difference"].mean >= -1e-9
        assert "mwf (stop)" in out["table"]


class TestCrossoverAblation:
    def test_runs_every_operator(self):
        out = crossover_ablation(scale=BENCH_TINY)
        assert set(out["results"]) == {"positional", "ox", "pmx"}
        assert out["best_operator"] in out["results"]
