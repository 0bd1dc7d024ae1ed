"""The GENITOR steady-state engine (Section 5).

Problem-agnostic driver for the paper's permutation-space search:

* an initial population of permutations (optionally seeded), evaluated
  and rank-sorted;
* each iteration performs one **crossover** — two bias-selected parents
  produce two offspring, each immediately competing for insertion — and
  one **mutation** — a bias-selected chromosome perturbed by a swap,
  again competing for insertion;
* replace-worst insertion gives implicit elitism;
* three stopping rules (:mod:`repro.genitor.stopping`).

The engine knows nothing about resource allocation: it takes a fitness
callable mapping a permutation to a
:class:`~repro.core.metrics.Fitness`.  Evaluations are memoized, since
steady-state GAs revisit permutations frequently and the projection
(IMR + feasibility over 150 strings) dominates runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.metrics import Fitness
from .bias import biased_rank
from .crossover import swap_mutation
from .operators import get_crossover
from .population import Chromosome, Individual, Population
from .stopping import StoppingRules, StopTracker

__all__ = ["GenitorConfig", "GenitorStats", "GenitorEngine"]


@dataclass(frozen=True)
class GenitorConfig:
    """GENITOR hyper-parameters; defaults are the paper's.

    ``crossover`` selects the recombination operator by name from
    :data:`repro.genitor.operators.CROSSOVER_OPERATORS` — the paper's
    ``"positional"`` top-part operator by default, with ``"ox"`` and
    ``"pmx"`` available for the operator ablation.
    """

    population_size: int = 250
    bias: float = 1.6
    rules: StoppingRules = field(default_factory=StoppingRules)
    crossover: str = "positional"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1.0 <= self.bias <= 2.0:
            raise ValueError(f"bias must be in [1, 2], got {self.bias}")
        get_crossover(self.crossover)  # validates the name


@dataclass
class GenitorStats:
    """Search statistics collected by one engine run."""

    iterations: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    insertions: int = 0
    elite_improvements: int = 0
    stop_reason: str = ""
    #: Wall-clock seconds of the search loop (excludes population init).
    elapsed_seconds: float = 0.0
    #: Fresh fitness evaluations per second of search-loop wall time.
    evals_per_second: float = 0.0
    #: (iteration, fitness) at each strict elite improvement.
    improvement_trace: list[tuple[int, Fitness]] = field(default_factory=list)


class GenitorEngine:
    """Steady-state GENITOR over permutations of ``genes``.

    Parameters
    ----------
    genes:
        The id set permuted by chromosomes (string ids, for the PSG).
    fitness_fn:
        Permutation -> :class:`Fitness`; must be deterministic (results
        are memoized).
    config:
        Population size, bias, stopping rules.
    rng:
        Randomness source (population init, selection, operators).
    seeds:
        Chromosomes guaranteed a slot in the initial population (the
        Seeded PSG passes the MWF and TF orderings).
    initial_evaluator:
        Optional bulk evaluator for the initial population: called once
        with the list of distinct initial chromosomes, must return their
        fitness values in the same order.  Lets a driver score the
        whole initial population in one bulk pass (the PSG driver uses
        the batched kernel); must agree exactly with ``fitness_fn``.
    """

    def __init__(
        self,
        genes: Sequence[int],
        fitness_fn: Callable[[Chromosome], Fitness],
        config: GenitorConfig,
        rng: np.random.Generator,
        seeds: Sequence[Chromosome] = (),
        initial_evaluator: Callable[
            [Sequence[Chromosome]], Sequence[Fitness]
        ] | None = None,
    ):
        self.genes = tuple(genes)
        self.fitness_fn = fitness_fn
        self.config = config
        self.rng = rng
        self.stats = GenitorStats()
        self._cache: dict[Chromosome, Fitness] = {}
        self._crossover = get_crossover(config.crossover)

        if len(seeds) > config.population_size:
            raise ValueError(
                f"{len(seeds)} seeds exceed population size "
                f"{config.population_size}"
            )
        gene_set = set(self.genes)
        chromosomes: list[Chromosome] = []
        for seed in seeds:
            if set(seed) != gene_set or len(seed) != len(self.genes):
                raise ValueError(f"seed {seed!r} is not a permutation of genes")
            chromosomes.append(tuple(seed))
        while len(chromosomes) < config.population_size:
            perm = tuple(int(g) for g in rng.permutation(self.genes))
            chromosomes.append(perm)
        if initial_evaluator is not None:
            distinct = list(dict.fromkeys(chromosomes))
            fitnesses = list(initial_evaluator(distinct))
            if len(fitnesses) != len(distinct):
                raise ValueError(
                    f"initial_evaluator returned {len(fitnesses)} fitness "
                    f"values for {len(distinct)} chromosomes"
                )
            self._cache.update(zip(distinct, fitnesses))
            self.stats.evaluations += len(distinct)
            self.population = Population(
                [Individual(c, self._cache[c]) for c in chromosomes]
            )
        else:
            self.population = Population(
                [Individual(c, self._evaluate(c)) for c in chromosomes]
            )

    # -- internals ---------------------------------------------------------------

    def _evaluate(self, chromosome: Chromosome) -> Fitness:
        cached = self._cache.get(chromosome)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        fitness = self.fitness_fn(chromosome)
        self._cache[chromosome] = fitness
        self.stats.evaluations += 1
        return fitness

    def _select(self) -> Individual:
        rank = biased_rank(len(self.population), self.config.bias, self.rng)
        return self.population[rank]

    def _select_pair(self) -> tuple[Individual, Individual]:
        """Two parents; re-draw the second until it is a different rank.

        The paper selects "two chromosomes to act as parents"; crossing a
        chromosome with itself is a no-op, so distinct ranks are drawn
        (distinct *permutations* cannot be guaranteed once the population
        starts converging).
        """
        n = len(self.population)
        r1 = biased_rank(n, self.config.bias, self.rng)
        r2 = r1
        while n > 1 and r2 == r1:
            r2 = biased_rank(n, self.config.bias, self.rng)
        return self.population[r1], self.population[r2]

    def _consider(self, chromosome: Chromosome) -> bool:
        offspring = Individual(chromosome, self._evaluate(chromosome))
        inserted = self.population.consider(offspring)
        if inserted:
            self.stats.insertions += 1
        return inserted

    # -- the run -------------------------------------------------------------------

    def run(self) -> Individual:
        """Iterate crossover+mutation until a stopping rule fires.

        Returns the elite individual.
        """
        tracker = StopTracker(self.config.rules)
        while True:
            elite_before = self.population.best.chromosome

            parent1, parent2 = self._select_pair()
            child1, child2 = self._crossover(
                parent1.chromosome, parent2.chromosome, self.rng
            )
            self._consider(child1)
            self._consider(child2)

            mutant_parent = self._select()
            mutant = swap_mutation(mutant_parent.chromosome, self.rng)
            self._consider(mutant)

            elite_changed = self.population.best.chromosome != elite_before
            if elite_changed:
                self.stats.elite_improvements += 1
                self.stats.improvement_trace.append(
                    (tracker.iteration + 1, self.population.best.fitness)
                )
            if tracker.update(self.population, elite_changed):
                break
        self.stats.iterations = tracker.iteration
        self.stats.stop_reason = tracker.reason or ""
        elapsed = tracker.elapsed_seconds
        self.stats.elapsed_seconds = elapsed
        if elapsed > 0.0:
            self.stats.evals_per_second = self.stats.evaluations / elapsed
        return self.population.best
