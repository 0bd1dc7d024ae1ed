"""Unit tests for the GENITOR engine (repro.genitor.engine) on synthetic
fitness landscapes (no allocation machinery involved)."""

import numpy as np
import pytest

from repro.core import Fitness
from repro.genitor import GenitorConfig, GenitorEngine, StoppingRules


def sortedness_fitness(chromosome):
    """Counts adjacent ascending pairs — optimum is the identity."""
    score = sum(
        1.0 for a, b in zip(chromosome, chromosome[1:]) if a < b
    )
    return Fitness(worth=score, slackness=0.0)


def constant_fitness(_chromosome):
    return Fitness(worth=1.0, slackness=0.5)


def make_engine(fitness_fn=sortedness_fitness, n_genes=8, pop=12,
                max_iter=400, stale=150, seed=0, seeds=()):
    config = GenitorConfig(
        population_size=pop,
        bias=1.6,
        rules=StoppingRules(
            max_iterations=max_iter, max_stale_iterations=stale
        ),
    )
    return GenitorEngine(
        genes=range(n_genes),
        fitness_fn=fitness_fn,
        config=config,
        rng=np.random.default_rng(seed),
        seeds=seeds,
    )


class TestInitialization:
    def test_population_size(self):
        engine = make_engine(pop=10)
        assert len(engine.population) == 10

    def test_all_chromosomes_are_permutations(self):
        engine = make_engine(n_genes=6)
        for ind in engine.population:
            assert sorted(ind.chromosome) == list(range(6))

    def test_seeds_included(self):
        seed_perm = tuple(range(8))
        engine = make_engine(seeds=(seed_perm,))
        assert any(
            ind.chromosome == seed_perm for ind in engine.population
        )

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            make_engine(seeds=((0, 0, 1, 2, 3, 4, 5, 6),))

    def test_too_many_seeds_rejected(self):
        seeds = tuple(
            tuple(np.random.default_rng(i).permutation(8).tolist())
            for i in range(20)
        )
        with pytest.raises(ValueError):
            make_engine(pop=4, seeds=seeds)


class TestRun:
    def test_finds_good_solutions(self):
        engine = make_engine(max_iter=800, stale=800)
        best = engine.run()
        # optimum worth is 7; the GA should get close on a tiny landscape
        assert best.fitness.worth >= 5.0

    def test_monotone_improvement_trace(self):
        engine = make_engine()
        engine.run()
        fits = [f for _it, f in engine.stats.improvement_trace]
        assert all(b > a for a, b in zip(fits, fits[1:]))

    def test_elite_never_degrades(self):
        engine = make_engine(max_iter=50, stale=50)
        initial_best = engine.population.best.fitness
        best = engine.run()
        assert best.fitness >= initial_best

    def test_deterministic_given_seed(self):
        a = make_engine(seed=5).run()
        b = make_engine(seed=5).run()
        assert a.chromosome == b.chromosome
        assert a.fitness == b.fitness

    def test_different_seeds_explore_differently(self):
        a = make_engine(seed=1, max_iter=30, stale=30)
        b = make_engine(seed=2, max_iter=30, stale=30)
        a.run(); b.run()
        assert (
            a.population.best.chromosome != b.population.best.chromosome
            or a.stats.evaluations != b.stats.evaluations
        )


class TestStopping:
    def test_max_iterations(self):
        engine = make_engine(max_iter=25, stale=10_000)
        engine.run()
        assert engine.stats.stop_reason == "max-iterations"
        assert engine.stats.iterations == 25

    def test_stale_elite(self):
        engine = make_engine(fitness_fn=constant_fitness, max_iter=10_000,
                             stale=30)
        engine.run()
        assert engine.stats.stop_reason == "stale-elite"
        assert engine.stats.iterations <= 40

    def test_convergence_stop(self):
        # 2 genes -> only two permutations; population converges fast
        # under constant fitness... constant fitness never inserts, so use
        # sortedness: (0,1) dominates and fills the population.
        engine = make_engine(n_genes=2, pop=4, max_iter=10_000, stale=10_000)
        engine.run()
        assert engine.stats.stop_reason in ("converged", "stale-elite")


class TestStats:
    def test_cache_hits_counted(self):
        engine = make_engine(n_genes=3, pop=6, max_iter=100, stale=100)
        engine.run()
        # only 6 permutations of 3 genes exist; re-evaluations must hit cache
        assert engine.stats.cache_hits > 0
        assert engine.stats.evaluations <= 6

    def test_initial_duplicates_are_cache_hits(self):
        calls = []

        def counting_fitness(chromosome):
            calls.append(chromosome)
            return sortedness_fitness(chromosome)

        dup = tuple(range(8))
        engine = make_engine(fitness_fn=counting_fitness, pop=5,
                             seeds=(dup, dup, dup))
        # scored through fitness_fn once per distinct chromosome; the
        # repeats are answered from the evaluation cache
        assert len(calls) == len(set(calls)) == engine.stats.evaluations
        assert engine.stats.cache_hits == 5 - len(set(calls))
        assert engine.stats.cache_hits >= 2

    def test_insertions_bounded_by_considered(self):
        engine = make_engine(max_iter=60, stale=60)
        engine.run()
        assert 0 <= engine.stats.insertions <= 3 * engine.stats.iterations


class TestStoppingRulesValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_iterations=0),
        dict(max_stale_iterations=0),
        dict(check_convergence_every=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StoppingRules(**kwargs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenitorConfig(population_size=1)
        with pytest.raises(ValueError):
            GenitorConfig(bias=2.5)
