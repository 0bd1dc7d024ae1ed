"""PSG and Seeded PSG heuristics — Section 5.

The Permutation Space GENITOR heuristic couples the GENITOR engine with
the IMR projection: each chromosome is an ordering of all strings; its
fitness is the two-component metric of the mapping obtained by
allocating strings in that order until the first feasibility failure.

*Seeded* PSG additionally injects the MWF and TF orderings into the
initial population, guaranteeing the GA starts no worse than the
single-shot heuristics (replace-worst insertion preserves the elite).

The paper runs PSG with population 250 for up to 5 000 iterations and
reports the best of four independent trials per simulation run; both
knobs are exposed here (``config`` and :func:`best_of_trials`).

Performance (see ``docs/performance.md``): each run shares one
:class:`~repro.core.profile.ProfileCache` across every chromosome
projection, including the initial population's, and
:func:`best_of_trials` fans independent trials over a
:class:`~repro.parallel.SupervisedPool` (``n_workers``) with a
precomputed seed stream so parallel and serial
execution produce identical results — even under injected worker failure (see
``docs/robustness.md``).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

import numpy as np

from ..core.metrics import Fitness
from ..core.model import SystemModel
from ..core.profile import ProfileCache
from ..genitor import Chromosome, GenitorConfig, GenitorEngine
from ..parallel import (
    ChaosPolicy,
    SharedModelGroup,
    SupervisedPool,
    SupervisorConfig,
    Task,
    get_worker_context,
)
from .base import HeuristicResult, timed_section
from .mwf import mwf_order
from .ordering import allocate_sequence
from .tf import tf_order

__all__ = ["psg", "seeded_psg", "best_of_trials"]

def _make_fitness_fn(
    model: SystemModel,
    profile_cache: ProfileCache | None = None,
) -> Callable[[Chromosome], Fitness]:
    """Permutation -> Fitness via the IMR allocate-until-failure projection."""

    def fitness_fn(chromosome: Chromosome) -> Fitness:
        outcome = allocate_sequence(
            model, chromosome, profile_cache=profile_cache
        )
        return outcome.fitness()

    return fitness_fn


def _run_engine(
    name: str,
    model: SystemModel,
    config: GenitorConfig,
    rng: np.random.Generator,
    seeds: tuple[Chromosome, ...],
    profile_cache: ProfileCache | None = None,
) -> HeuristicResult:
    with timed_section() as elapsed:
        prof_cache = (
            profile_cache if profile_cache is not None else ProfileCache()
        )
        engine = GenitorEngine(
            genes=range(model.n_strings),
            fitness_fn=_make_fitness_fn(model, profile_cache=prof_cache),
            config=config,
            rng=rng,
            seeds=seeds,
        )
        best = engine.run()
        # Re-project the elite to materialize its allocation.
        outcome = allocate_sequence(
            model, best.chromosome, profile_cache=prof_cache
        )
    stats = engine.stats
    wall = elapsed[0]
    return HeuristicResult(
        name=name,
        allocation=outcome.state.as_allocation(),
        fitness=best.fitness,
        order=best.chromosome,
        mapped_ids=outcome.mapped_ids,
        runtime_seconds=wall,
        stats={
            "iterations": stats.iterations,
            "evaluations": stats.evaluations,
            "cache_hits": stats.cache_hits,
            "insertions": stats.insertions,
            "elite_improvements": stats.elite_improvements,
            "stop_reason": stats.stop_reason,
            "evals_per_second": (
                stats.evaluations / wall if wall > 0.0 else 0.0
            ),
            "profile_cache": prof_cache.stats(),
        },
    )


def psg(
    model: SystemModel,
    config: GenitorConfig | None = None,
    rng: np.random.Generator | int | None = None,
    profile_cache: ProfileCache | None = None,
) -> HeuristicResult:
    """Run the (unseeded) PSG heuristic.

    Parameters
    ----------
    model:
        The problem instance.
    config:
        GENITOR hyper-parameters; defaults to the paper's
        (population 250, bias 1.6, 5 000 iterations / 300 stale).
    rng:
        Seed or generator for the stochastic search.
    profile_cache:
        Optional pre-warmed profile cache to reuse; caches are pure
        memoization, so sharing one across runs changes speed, never
        results.
    """
    return _run_engine(
        "psg",
        model,
        config or GenitorConfig(),
        np.random.default_rng(rng),
        seeds=(),
        profile_cache=profile_cache,
    )


def seeded_psg(
    model: SystemModel,
    config: GenitorConfig | None = None,
    rng: np.random.Generator | int | None = None,
    profile_cache: ProfileCache | None = None,
) -> HeuristicResult:
    """Run the Seeded PSG heuristic (MWF + TF orderings in the initial
    population; everything else identical to PSG)."""
    seeds = (mwf_order(model), tf_order(model))
    return _run_engine(
        "seeded-psg",
        model,
        config or GenitorConfig(),
        np.random.default_rng(rng),
        seeds=seeds,
        profile_cache=profile_cache,
    )


def _trial_worker(
    heuristic: Callable[..., HeuristicResult],
    token: str,
    seed: int,
    kwargs: dict[str, Any],
) -> HeuristicResult:
    """One independent trial in a worker process (module-level: pickles).

    ``token`` resolves to the model this worker was handed plus its
    persistent :class:`ProfileCache`, which is passed to heuristics
    that accept one so profile memoization survives across the trials
    a warm worker serves.
    """
    model, profile_cache = get_worker_context(token)
    if (
        "profile_cache" not in kwargs
        and "profile_cache" in inspect.signature(heuristic).parameters
    ):
        kwargs = {**kwargs, "profile_cache": profile_cache}
    return heuristic(model, rng=np.random.default_rng(seed), **kwargs)


def best_of_trials(
    heuristic: Callable[..., HeuristicResult],
    model: SystemModel,
    n_trials: int,
    rng: np.random.Generator | int | None = None,
    n_workers: int = 1,
    chaos: ChaosPolicy | None = None,
    trial_timeout: float | None = None,
    **kwargs: Any,
) -> HeuristicResult:
    """Best result over independent trials (the paper uses four).

    Each trial gets an independent RNG stream; the returned result is
    the trial with the highest fitness, with aggregate runtime and the
    per-trial fitness list recorded in ``stats``.

    With ``n_workers`` > 1 the trials fan out over a
    :class:`~repro.parallel.SupervisedPool`, with the model handed to
    each worker once through a :class:`~repro.parallel.SharedModelGroup`
    instead of pickled per trial.  The per-trial seeds are drawn from
    the trial RNG *before* dispatch — the identical stream the serial
    path consumes — and results are collected by trial index, so the
    parallel path returns bit-identical results (including the ``max``
    tie-break in trial order) to ``n_workers=1`` for the same ``rng``.
    Worker deaths, per-trial deadline expiries (``trial_timeout``
    seconds; a non-positive value is rejected on both paths), and
    corrupted returns are retried by the supervisor and, when
    exhausted, replayed deterministically in-process;
    ``stats["trial_failures"]`` counts such recoveries and
    ``stats["supervisor"]`` carries the full
    :class:`~repro.parallel.PoolStats` counters.  ``chaos`` threads a
    seeded :class:`~repro.parallel.ChaosPolicy` fault injector through
    the workers (tests and the ``repro chaos`` soak; ignored on the
    serial path, which has no workers to kill).  The ``heuristic``
    must be picklable (the module-level :func:`psg` / :func:`seeded_psg`
    are).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    # Built up front so both paths reject a non-positive trial_timeout.
    config = SupervisorConfig(task_timeout=trial_timeout)
    rng = np.random.default_rng(rng)
    trial_seeds = [int(rng.integers(2**63)) for _ in range(n_trials)]
    trial_failures = 0
    supervisor_stats: dict[str, int] | None = None
    with timed_section() as elapsed:
        if n_workers == 1 or n_trials == 1:
            results: list[HeuristicResult] = [
                heuristic(model, rng=np.random.default_rng(seed), **kwargs)
                for seed in trial_seeds
            ]
        else:
            with SharedModelGroup([model]) as shared, SupervisedPool(
                min(n_workers, n_trials),
                initializer=shared.initializer,
                initargs=shared.initargs,
                config=config,
                chaos=chaos,
            ) as pool:
                (token,) = shared.tokens
                outcomes = pool.run(
                    [
                        Task(_trial_worker, (heuristic, token, seed, kwargs))
                        for seed in trial_seeds
                    ]
                )
            supervisor_stats = pool.stats.as_dict()
            trial_failures = pool.stats.retries + pool.stats.quarantined
            results = []
            for outcome in outcomes:
                if outcome.error is not None:
                    # Deterministic trial exception: re-running the
                    # pure trial cannot change it, so propagate —
                    # exactly what the serial path would do.
                    raise outcome.error
                results.append(outcome.value)
    best = max(results, key=lambda r: r.fitness)
    best.stats["n_trials"] = n_trials
    best.stats["n_workers"] = n_workers
    best.stats["trial_failures"] = trial_failures
    best.stats["supervisor"] = supervisor_stats
    best.stats["trial_fitnesses"] = [r.fitness.as_tuple() for r in results]
    best.stats["total_runtime_seconds"] = sum(
        r.runtime_seconds for r in results
    )
    best.stats["wall_seconds"] = elapsed[0]
    best.stats["total_evaluations"] = sum(
        r.stats.get("evaluations", 0) for r in results
    )
    return best
