"""Unit tests for the PSG / Seeded PSG heuristics (repro.heuristics.psg)."""

import numpy as np
import pytest

from repro.core import analyze
from repro.core.exceptions import ModelError
from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics import (
    best_of_trials,
    most_worth_first,
    mwf_order,
    psg,
    seeded_psg,
    tf_order,
    tightest_first,
)
from repro.workload import SCENARIO_1, generate_model

SMALL_CONFIG = GenitorConfig(
    population_size=12,
    bias=1.6,
    rules=StoppingRules(max_iterations=60, max_stale_iterations=30),
)


class TestPsg:
    def test_result_shape(self, scenario1_small):
        res = psg(scenario1_small, config=SMALL_CONFIG, rng=0)
        assert res.name == "psg"
        assert sorted(res.order) == list(range(scenario1_small.n_strings))
        assert analyze(res.allocation).feasible
        assert res.stats["iterations"] <= 60
        assert res.stats["stop_reason"]

    def test_fitness_matches_reprojection(self, scenario1_small):
        res = psg(scenario1_small, config=SMALL_CONFIG, rng=1)
        assert res.fitness.worth == res.allocation.total_worth()

    def test_deterministic_given_seed(self, scenario1_small):
        a = psg(scenario1_small, config=SMALL_CONFIG, rng=3)
        b = psg(scenario1_small, config=SMALL_CONFIG, rng=3)
        assert a.order == b.order
        assert a.fitness == b.fitness

    def test_beats_or_ties_random_member(self, scenario1_small):
        """PSG's elite must be at least as good as a random projection
        (it starts from a random population and only improves)."""
        from repro.heuristics import random_order_once

        res = psg(scenario1_small, config=SMALL_CONFIG, rng=4)
        rand = random_order_once(scenario1_small, rng=4)
        # not guaranteed for *any* random order, but PSG's own population
        # includes many; at minimum PSG >= the empty bound 0
        assert res.fitness.worth >= 0
        assert res.fitness.worth >= min(
            rand.fitness.worth, res.fitness.worth
        )


class TestSeededPsg:
    def test_at_least_as_good_as_seeds(self, scenario1_small):
        """Elitism guarantees Seeded PSG >= max(MWF, TF)."""
        res = seeded_psg(scenario1_small, config=SMALL_CONFIG, rng=0)
        mwf = most_worth_first(scenario1_small)
        tf = tightest_first(scenario1_small)
        assert res.fitness >= mwf.fitness
        assert res.fitness >= tf.fitness

    def test_seeds_present_in_initial_population(self, scenario3_small):
        # indirect check: with zero iterations the elite is the best of
        # the initial population, which includes both seed orderings.
        config = GenitorConfig(
            population_size=8,
            rules=StoppingRules(max_iterations=1, max_stale_iterations=1),
        )
        res = seeded_psg(scenario3_small, config=config, rng=0)
        mwf = most_worth_first(scenario3_small)
        tf = tightest_first(scenario3_small)
        assert res.fitness >= max(mwf.fitness, tf.fitness)

    def test_name(self, scenario3_small):
        res = seeded_psg(scenario3_small, config=SMALL_CONFIG, rng=0)
        assert res.name == "seeded-psg"


class TestBestOfTrials:
    def test_best_selected(self, scenario1_small):
        res = best_of_trials(
            psg, scenario1_small, n_trials=3, rng=0, config=SMALL_CONFIG
        )
        fits = res.stats["trial_fitnesses"]
        assert len(fits) == 3
        assert tuple(res.fitness.as_tuple()) == max(fits)

    def test_single_trial(self, scenario3_small):
        res = best_of_trials(
            psg, scenario3_small, n_trials=1, rng=0, config=SMALL_CONFIG
        )
        assert res.stats["n_trials"] == 1

    def test_invalid_trials(self, scenario3_small):
        with pytest.raises(ValueError):
            best_of_trials(psg, scenario3_small, n_trials=0)

    def test_total_runtime_accumulates(self, scenario3_small):
        res = best_of_trials(
            psg, scenario3_small, n_trials=2, rng=0, config=SMALL_CONFIG
        )
        assert res.stats["total_runtime_seconds"] >= res.runtime_seconds


class TestCompleteAllocationScenario:
    def test_psg_optimizes_slackness_when_all_fit(self, scenario3_small):
        """With a complete mapping, PSG should match the single-shot
        heuristics on worth and optimize slackness."""
        res = psg(scenario3_small, config=SMALL_CONFIG, rng=0)
        mwf = most_worth_first(scenario3_small)
        assert res.fitness.worth == mwf.fitness.worth  # everything mapped
        assert res.fitness.slackness >= mwf.fitness.slackness - 0.05


class TestEvaluationCore:
    """The perf layers must not change what the search returns."""

    #: (fitness, order, mapped_ids), captured while the search still had a
    #: second, cached projection path; every state backend must reproduce
    #: them exactly.  "psg" and "seeded_psg": scenario1_small with
    #: SMALL_CONFIG and rng=5.  "psg_best_of_1": see _golden_run.
    GOLDEN = {
        "psg": (
            (654.0, 0.07342643974394802),
            (5, 13, 16, 17, 0, 24, 18, 23, 10, 8, 11, 3, 2, 14, 6, 22, 9,
             15, 20, 1, 4, 19, 12, 7, 21),
            (5, 13, 16, 17, 0, 24, 18, 23, 10, 8, 11, 3, 2, 14, 6),
        ),
        "seeded_psg": (
            (761.0, 0.12892913819858287),
            (5, 14, 4, 13, 3, 23, 18, 24, 1, 6, 11, 10, 12, 8, 17, 20, 22,
             0, 2, 7, 15, 19, 16, 9, 21),
            (5, 14, 4, 13, 3, 23, 18, 24, 1, 6, 11, 10, 12, 8),
        ),
        "psg_best_of_1": (
            (853.0, 0.12163748351374803),
            (21, 9, 11, 6, 13, 3, 15, 1, 8, 4, 24, 0, 16, 10, 2, 18, 14,
             17, 7, 22, 12, 23, 19, 5, 20),
            (21, 9, 11, 6, 13, 3, 15, 1, 8, 4, 24, 0, 16, 10, 2, 18),
        ),
    }

    @staticmethod
    def _golden_run(case, scenario1_small):
        if case == "psg_best_of_1":
            # One best_of_trials PSG trial on scenario 1 at 25 strings /
            # 4 machines (generator seed 7), population 30, 250 / 120
            # iterations.
            model = generate_model(
                SCENARIO_1.scaled(n_strings=25, n_machines=4), seed=7
            )
            config = GenitorConfig(
                population_size=30,
                rules=StoppingRules(
                    max_iterations=250, max_stale_iterations=120
                ),
            )
            return best_of_trials(
                psg, model, n_trials=1, rng=7, n_workers=1, config=config
            )
        heuristic = {"psg": psg, "seeded_psg": seeded_psg}[case]
        return heuristic(scenario1_small, config=SMALL_CONFIG, rng=5)

    @pytest.mark.parametrize("case", ["psg", "seeded_psg", "psg_best_of_1"])
    def test_golden_elite(self, scenario1_small, case):
        res = self._golden_run(case, scenario1_small)
        fitness, order, mapped_ids = self.GOLDEN[case]
        assert res.fitness.as_tuple() == fitness
        assert tuple(res.order) == order
        assert tuple(res.mapped_ids) == mapped_ids
        assert res.stats["evals_per_second"] > 0.0
        assert 0.0 < res.stats["profile_cache"]["hit_rate"] <= 1.0


class TestParallelTrials:
    def test_parallel_matches_serial(self, scenario3_small):
        serial = best_of_trials(
            psg, scenario3_small, n_trials=3, rng=11, config=SMALL_CONFIG
        )
        parallel = best_of_trials(
            psg, scenario3_small, n_trials=3, rng=11, n_workers=2,
            config=SMALL_CONFIG,
        )
        assert parallel.fitness == serial.fitness
        assert parallel.order == serial.order
        assert parallel.stats["trial_fitnesses"] == (
            serial.stats["trial_fitnesses"]
        )
        assert parallel.stats["trial_failures"] == 0

    def test_invalid_workers(self, scenario3_small):
        with pytest.raises(ValueError):
            best_of_trials(
                psg, scenario3_small, n_trials=2, n_workers=0,
                config=SMALL_CONFIG,
            )

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("trial_timeout", [0, -1.0])
    def test_nonpositive_trial_timeout_rejected(
        self, scenario3_small, n_workers, trial_timeout
    ):
        # The serial path has no deadline to enforce, but it must reject
        # the same arguments the pooled path does.
        with pytest.raises(ModelError, match="task_timeout"):
            best_of_trials(
                psg, scenario3_small, n_trials=2, n_workers=n_workers,
                trial_timeout=trial_timeout, config=SMALL_CONFIG,
            )

    def test_aggregate_stats_present(self, scenario3_small):
        res = best_of_trials(
            psg, scenario3_small, n_trials=2, rng=0, config=SMALL_CONFIG
        )
        assert res.stats["wall_seconds"] > 0.0
        assert res.stats["total_evaluations"] > 0
        assert res.stats["n_workers"] == 1
