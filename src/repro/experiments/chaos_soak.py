"""Chaos soak: determinism-under-failure, exercised end to end.

The acceptance contract of the supervised parallel runtime
(``docs/robustness.md``) is that process-level failure — killed
workers, stalled tasks, corrupted returns — costs wall-clock time but
never changes results or loses tasks.
:func:`run_chaos_soak` drives that contract against the real PSG
pipeline: each round runs :func:`~repro.heuristics.best_of_trials` on a
sampled workload twice with the same RNG — once on a healthy
:class:`~repro.parallel.SupervisedPool` and once with a seeded
:class:`~repro.parallel.ChaosPolicy` injecting faults — and verifies

* **bit-identity**: elite fitness, elite order, and the full per-trial
  fitness list are exactly equal between the two runs;
* **no lost tasks**: every trial produced a fitness, and the
  supervisor's conservation counter (``tasks = completed +
  task_errors``) holds.

The ``repro chaos`` CLI subcommand wraps this with flags and a
non-zero exit code on violation — the CI chaos smoke job runs it on
every push.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fleet import solve_fleet
from ..genitor import GenitorConfig, StoppingRules
from ..heuristics import best_of_trials, seeded_psg
from ..parallel import ChaosPolicy
from ..workload import SCENARIO_1, ScenarioParameters, generate_model
from ..workload.fleet import FLEET_SMOKE, generate_fleet

__all__ = ["ChaosSoakRound", "FleetChaosRound", "run_chaos_soak"]

@dataclass(frozen=True)
class ChaosSoakRound:
    """Outcome of one clean-vs-chaotic paired round."""

    index: int
    identical: bool
    lost_tasks: int
    clean_fitness: tuple[float, float]
    chaos_fitness: tuple[float, float]
    retries: int
    worker_deaths: int
    corrupted: int
    replayed_in_process: int

    @property
    def ok(self) -> bool:
        return self.identical and self.lost_tasks == 0


@dataclass(frozen=True)
class FleetChaosRound:
    """Outcome of the paired clean-vs-chaotic sharded fleet solve.

    The sharded solver's contract mirrors ``best_of_trials``: shard
    results are collected by shard index and the composition is
    conservation-checked, so a chaotic pool may cost retries but must
    compose the bit-identical global allocation with no shard result
    lost or double-counted (``validate_result`` would raise on either).
    """

    n_shards: int
    identical: bool
    lost_tasks: int
    clean_signature: str
    chaos_signature: str
    clean_worth: float
    chaos_worth: float
    retries: int
    worker_deaths: int
    corrupted: int

    @property
    def ok(self) -> bool:
        return self.identical and self.lost_tasks == 0


def _run_fleet_round(
    n_shards: int,
    n_workers: int,
    chaos: ChaosPolicy,
    seed: int,
) -> FleetChaosRound:
    """One paired clean/chaotic :func:`solve_fleet` on the smoke fleet."""
    workload = generate_fleet(FLEET_SMOKE, seed=seed)
    clean = solve_fleet(
        workload, n_shards, seed=seed, n_workers=n_workers
    )
    chaotic = solve_fleet(
        workload, n_shards, seed=seed, n_workers=n_workers, chaos=chaos
    )
    sup = chaotic.stats.get("pool", {})
    lost = sup.get("tasks", 0) - sup.get("completed", 0) - sup.get(
        "task_errors", 0
    )
    return FleetChaosRound(
        n_shards=n_shards,
        identical=clean.signature() == chaotic.signature(),
        lost_tasks=lost,
        clean_signature=clean.signature(),
        chaos_signature=chaotic.signature(),
        clean_worth=clean.total_worth,
        chaos_worth=chaotic.total_worth,
        retries=sup.get("retries", 0),
        worker_deaths=sup.get("worker_deaths", 0),
        corrupted=sup.get("corrupted", 0),
    )


def run_chaos_soak(
    rounds: int = 2,
    n_trials: int = 4,
    n_workers: int = 2,
    kill_rate: float = 0.1,
    delay_rate: float = 0.1,
    corrupt_rate: float = 0.1,
    seed: int = 777,
    scenario: ScenarioParameters | None = None,
    fleet_shards: int = 2,
) -> dict:
    """Run paired clean/chaotic ``best_of_trials`` rounds and verify.

    Returns ``{"rounds": [ChaosSoakRound], "fleet": FleetChaosRound |
    None, "ok": bool, "summary": str}``.  ``ok`` is True only when
    every round was bit-identical with zero lost tasks.

    ``fleet_shards >= 2`` appends one sharded-fleet round: a paired
    clean/chaotic :func:`~repro.fleet.solve_fleet` on the smoke fleet,
    held to the same contract (bit-identical composition, no shard
    result lost or double-counted).  ``0`` disables it.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    params = (
        scenario
        if scenario is not None
        else SCENARIO_1.scaled(n_strings=10, n_machines=4)
    )
    config = GenitorConfig(
        population_size=8,
        rules=StoppingRules(max_iterations=30, max_stale_iterations=15),
    )
    results: list[ChaosSoakRound] = []
    for i in range(rounds):
        model = generate_model(params, seed=seed + i)
        rng_seed = seed * 31 + i
        chaos = ChaosPolicy(
            kill_rate=kill_rate,
            delay_rate=delay_rate,
            corrupt_rate=corrupt_rate,
            seed=seed + i,
        )
        clean = best_of_trials(
            seeded_psg, model, n_trials=n_trials, rng=rng_seed,
            n_workers=n_workers, config=config,
        )
        chaotic = best_of_trials(
            seeded_psg, model, n_trials=n_trials, rng=rng_seed,
            n_workers=n_workers, chaos=chaos, config=config,
        )
        identical = (
            clean.fitness.as_tuple() == chaotic.fitness.as_tuple()
            and clean.order == chaotic.order
            and clean.stats["trial_fitnesses"]
            == chaotic.stats["trial_fitnesses"]
        )
        sup = chaotic.stats["supervisor"] or {}
        lost = (
            n_trials - len(chaotic.stats["trial_fitnesses"])
        ) + sup.get("tasks", 0) - sup.get("completed", 0) - sup.get(
            "task_errors", 0
        )
        results.append(
            ChaosSoakRound(
                index=i,
                identical=identical,
                lost_tasks=lost,
                clean_fitness=clean.fitness.as_tuple(),
                chaos_fitness=chaotic.fitness.as_tuple(),
                retries=sup.get("retries", 0),
                worker_deaths=sup.get("worker_deaths", 0),
                corrupted=sup.get("corrupted", 0),
                replayed_in_process=sup.get("replayed_in_process", 0),
            )
        )
    fleet: FleetChaosRound | None = None
    if fleet_shards >= 2:
        fleet = _run_fleet_round(
            fleet_shards,
            n_workers,
            ChaosPolicy(
                kill_rate=kill_rate,
                delay_rate=delay_rate,
                corrupt_rate=corrupt_rate,
                seed=seed + rounds,
            ),
            seed=seed,
        )
    ok = all(r.ok for r in results) and (fleet is None or fleet.ok)
    injected = sum(
        r.retries + r.worker_deaths + r.corrupted for r in results
    )
    summary = (
        f"{len(results)} round(s): "
        f"{sum(r.identical for r in results)}/{len(results)} bit-identical, "
        f"{sum(r.lost_tasks for r in results)} lost task(s), "
        f"{injected} fault(s) absorbed "
        f"({sum(r.worker_deaths for r in results)} worker death(s), "
        f"{sum(r.corrupted for r in results)} corrupted return(s), "
        f"{sum(r.replayed_in_process for r in results)} in-process "
        f"replay(s))"
    )
    if fleet is not None:
        summary += (
            f"; fleet K={fleet.n_shards}: "
            f"{'bit-identical' if fleet.identical else 'DIVERGED'}, "
            f"{fleet.lost_tasks} lost shard result(s), "
            f"{fleet.worker_deaths} worker death(s), "
            f"{fleet.corrupted} corrupted return(s)"
        )
    return {
        "rounds": results,
        "fleet": fleet,
        "ok": ok,
        "summary": summary,
    }
