"""Determinism-under-failure: the chaos bit-identity contract.

The acceptance criterion of the supervised parallel runtime: with a
seeded :class:`~repro.parallel.ChaosPolicy` injecting worker kills,
delays, and corrupted returns, ``best_of_trials``, the experiment
runner, and the survivability experiment must produce results
bit-identical to a chaos-free run — no silently dropped tasks, and no
shared-memory segment created along the way.
"""

from multiprocessing import shared_memory

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import run_chaos_soak, run_experiment, run_survivability
from repro.experiments.runner import ExperimentConfig, ExperimentScale
from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics import best_of_trials, seeded_psg
from repro.parallel import ChaosPolicy
from repro.workload import SCENARIO_1, SCENARIO_3, generate_model

#: The issue's acceptance policy: kill-rate 0.1, delay-rate 0.1, seeded.
ACCEPTANCE_CHAOS = ChaosPolicy(kill_rate=0.1, delay_rate=0.1, seed=1_234)

#: A chaos policy dense enough to guarantee faults on 4 first attempts
#: (seed chosen so at least one attempt-1 kill and one corruption land).
DENSE_CHAOS = ChaosPolicy(
    kill_rate=0.4, delay_rate=0.2, corrupt_rate=0.4, seed=7
)

TINY_GA = GenitorConfig(
    population_size=8,
    rules=StoppingRules(max_iterations=25, max_stale_iterations=12),
)


def tiny_model(seed=2_024):
    return generate_model(
        SCENARIO_1.scaled(n_strings=8, n_machines=4), seed=seed
    )


def _deterministic_stats(result):
    return (
        result.fitness.as_tuple(),
        result.order,
        result.stats["trial_fitnesses"],
        result.stats["n_trials"],
    )


class TestBestOfTrialsBitIdentity:
    def test_acceptance_policy_matches_chaos_free_run(self):
        model = tiny_model()
        clean = best_of_trials(
            seeded_psg, model, n_trials=4, rng=11, n_workers=2,
            config=TINY_GA,
        )
        chaotic = best_of_trials(
            seeded_psg, model, n_trials=4, rng=11, n_workers=2,
            chaos=ACCEPTANCE_CHAOS, config=TINY_GA,
        )
        assert _deterministic_stats(clean) == _deterministic_stats(chaotic)
        assert len(chaotic.stats["trial_fitnesses"]) == 4
        sup = chaotic.stats["supervisor"]
        assert sup["tasks"] == sup["completed"]  # nothing silently lost
        assert sup["task_errors"] == 0

    def test_dense_chaos_still_bit_identical_and_absorbs_faults(self):
        model = tiny_model(seed=2_025)
        serial = best_of_trials(
            seeded_psg, model, n_trials=4, rng=13, config=TINY_GA,
        )
        chaotic = best_of_trials(
            seeded_psg, model, n_trials=4, rng=13, n_workers=2,
            chaos=DENSE_CHAOS, config=TINY_GA,
        )
        assert serial.fitness.as_tuple() == chaotic.fitness.as_tuple()
        assert serial.order == chaotic.order
        assert (
            serial.stats["trial_fitnesses"]
            == chaotic.stats["trial_fitnesses"]
        )
        sup = chaotic.stats["supervisor"]
        faults = (
            sup["retries"] + sup["quarantined"] + sup["corrupted"]
            + sup["worker_deaths"]
        )
        assert faults > 0, "dense chaos policy injected nothing"

    def test_no_shared_memory_leak_after_chaotic_runs(self, monkeypatch):
        # Nothing can leak because nothing is created: workers, restarted
        # pools and in-parent replays all get the model through the pool
        # initializer or the parent's registry.
        created = []

        def no_shm(*args, **kwargs):
            created.append(kwargs)
            raise OSError("best_of_trials must not create shared memory")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
        model = tiny_model()
        chaotic = best_of_trials(
            seeded_psg, model, n_trials=3, rng=17, n_workers=2,
            chaos=DENSE_CHAOS, config=TINY_GA,
        )
        assert created == []
        assert len(chaotic.stats["trial_fitnesses"]) == 3


# ---------------------------------------------------------------------------
# the experiment runner under chaos
# ---------------------------------------------------------------------------

TINY_SCALE = ExperimentScale(
    name="tiny",
    n_runs=3,
    size_factor=0.25,
    population_size=8,
    max_iterations=20,
    max_stale_iterations=10,
    n_trials=1,
)


def tiny_config(**overrides):
    defaults = dict(
        scenario=SCENARIO_3.scaled(n_strings=8, n_machines=4),
        heuristics=("mwf",),
        scale=TINY_SCALE,
        metric="worth",
        compute_ub=False,
        base_seed=4_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _deterministic_part(record):
    return {
        name: (worth, slack, n)
        for name, (worth, slack, _rt, n) in record.results.items()
    }


def _crash_after_first(config, run_index, run_timeout=None):
    """Module-level (picklable) stand-in: only run 0 survives."""
    if run_index != 0:
        raise RuntimeError("injected mid-experiment collapse")
    return runner_mod._run_one_inner(config, run_index)


class TestRunnerUnderChaos:
    def test_parallel_chaotic_matches_serial_clean(self):
        config = tiny_config()
        serial = run_experiment(config)
        chaotic = run_experiment(config, n_workers=2, chaos=DENSE_CHAOS)
        assert chaotic.complete
        assert not chaotic.failures
        for a, b in zip(serial.records, chaotic.records):
            assert a.run_index == b.run_index
            assert _deterministic_part(a) == _deterministic_part(b)

    def test_resume_from_checkpoint_after_collapse(self, tmp_path, monkeypatch):
        config = tiny_config()
        baseline = run_experiment(config)
        ckpt = tmp_path / "chaos-ckpt.json"

        # First pass: the experiment collapses after run 0 completes.
        monkeypatch.setattr(runner_mod, "_run_one", _crash_after_first)
        first = run_experiment(
            config, n_workers=2, chaos=ACCEPTANCE_CHAOS, checkpoint=ckpt
        )
        assert not first.complete
        assert [r.run_index for r in first.records] == [0]
        assert len(first.failures) == 2
        monkeypatch.undo()

        # Resume under chaos: only the missing runs are recomputed, and
        # the final records are bit-identical to the clean baseline.
        resumed = run_experiment(
            config, n_workers=2, chaos=ACCEPTANCE_CHAOS, checkpoint=ckpt
        )
        assert resumed.complete
        assert not resumed.failures
        assert [r.run_index for r in resumed.records] == [0, 1, 2]
        for a, b in zip(baseline.records, resumed.records):
            assert _deterministic_part(a) == _deterministic_part(b)


# ---------------------------------------------------------------------------
# the survivability runner under chaos
# ---------------------------------------------------------------------------

SURV_SCALE = ExperimentScale(
    name="tiny-surv",
    n_runs=1,
    size_factor=0.06,  # scenario 1 -> 9 strings, 2 machines
    population_size=8,
    max_iterations=20,
    max_stale_iterations=10,
    n_trials=2,  # >1 so best_of_trials actually engages the pool
)


class TestSurvivabilityBitIdentity:
    def test_chaotic_parallel_matches_serial(self):
        kwargs = dict(
            scenario=SCENARIO_1,
            scale=SURV_SCALE,
            heuristics=("mwf", "seeded-psg"),
            policies=("shed", "repair"),
            n_faults=2,
            base_seed=9_100,
        )
        serial = run_survivability(**kwargs)
        chaotic = run_survivability(
            n_workers=2, chaos=ACCEPTANCE_CHAOS, **kwargs
        )
        assert serial["faults"] == chaotic["faults"]
        for key, cell in serial["cells"].items():
            other = chaotic["cells"][key]
            assert cell.retained.mean == other.retained.mean
            assert cell.moved.mean == other.moved.mean
            assert cell.slackness.mean == other.slackness.mean


# ---------------------------------------------------------------------------
# the soak harness itself
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def test_soak_round_reports_clean_contract(self):
        report = run_chaos_soak(
            rounds=1, n_trials=3, n_workers=2,
            kill_rate=0.3, delay_rate=0.1, corrupt_rate=0.3, seed=770,
        )
        assert report["ok"], report["summary"]
        (round_,) = report["rounds"]
        assert round_.identical
        assert round_.lost_tasks == 0
        fleet = report["fleet"]
        assert fleet is not None
        assert fleet.ok
        assert fleet.identical
        assert fleet.clean_signature == fleet.chaos_signature
        assert fleet.lost_tasks == 0
        assert "fleet K=2" in report["summary"]

    def test_soak_fleet_round_can_be_disabled(self):
        report = run_chaos_soak(
            rounds=1, n_trials=2, n_workers=2,
            kill_rate=0.0, delay_rate=0.0, corrupt_rate=0.0, seed=770,
            fleet_shards=0,
        )
        assert report["fleet"] is None
        assert "fleet" not in report["summary"]

    def test_soak_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            run_chaos_soak(rounds=0)
