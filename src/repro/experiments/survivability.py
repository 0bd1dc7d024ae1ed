"""Survivability: worth retained after resource faults, per heuristic.

The paper motivates maximizing system slackness with a shipboard
environment where "the system is subject to unpredictable changes" —
including battle damage to the resources themselves.  This experiment
quantifies how much mission worth each heuristic's initial allocation
retains after ``k`` random faults (machine/route failures, partial
degradations, correlated damage zones), under each recovery policy
from :mod:`repro.faults.recovery`:

* ``shed`` — drop what no longer fits (the floor: zero recovery effort);
* ``repair`` — shed, then reinsert evicted strings via local search;
* ``remap-*`` — reallocate the surviving system from scratch.

All heuristics face the *same* sampled faults on the *same* workload
per run, so comparisons are paired.  The experiment also ranks machines
by worth-at-risk (fail each alone, measure the worth lost under
``shed``), averaged across runs — the paper's survivability concern
made concrete: which single resource loss hurts the mission most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.stats import ConfidenceInterval, mean_ci
from ..analysis.tables import format_table
from ..faults.criticality import critical_machines
from ..faults.injector import inject
from ..faults.recovery import recover
from ..faults.scenarios import FAULT_KINDS, sample_faults
from ..genitor import GenitorConfig
from ..heuristics import GA_HEURISTICS, best_of_trials, get_heuristic
from ..parallel import ChaosPolicy
from ..workload import SCENARIO_1, ScenarioParameters, generate_model
from .runner import SCALES, ExperimentScale

__all__ = ["SurvivabilityCell", "run_survivability"]


@dataclass(frozen=True)
class SurvivabilityCell:
    """Aggregated outcome for one (heuristic, recovery policy) pair."""

    heuristic: str
    policy: str
    retained: ConfidenceInterval
    moved: ConfidenceInterval
    slackness: ConfidenceInterval


def run_survivability(
    scenario: ScenarioParameters = SCENARIO_1,
    scale: str | ExperimentScale = "smoke",
    heuristics: tuple[str, ...] = ("mwf", "tf"),
    policies: tuple[str, ...] = ("shed", "repair", "remap-mwf"),
    n_faults: int = 3,
    kinds: tuple[str, ...] = FAULT_KINDS,
    base_seed: int = 9_000,
    rank_criticality: bool = True,
    n_workers: int = 1,
    chaos: ChaosPolicy | None = None,
) -> dict:
    """Measure worth retained after ``n_faults`` random faults.

    For each of ``scale.n_runs`` sampled workloads: build each
    heuristic's initial allocation, sample one fault scenario (shared
    across heuristics, kind-diverse by construction), and recover with
    every policy.  Returns ``{"cells": {(heuristic, policy):
    SurvivabilityCell}, "table": str, "criticality": [(machine,
    ConfidenceInterval)], "criticality_table": str, "faults": [str]}``.

    ``n_workers`` > 1 fans the GA trials of each run over a
    :class:`~repro.parallel.SupervisedPool`; ``chaos`` threads a seeded
    fault injector through those workers (the ``repro chaos`` soak uses
    this to assert results stay bit-identical under injected failure —
    process-level chaos mirroring the domain-level faults this
    experiment injects into the *model*).
    """
    if isinstance(scale, str):
        scale = SCALES[scale]
    params = scale.apply(scenario)
    ga_config: GenitorConfig = scale.genitor_config()

    samples: dict[tuple[str, str], dict[str, list[float]]] = {
        (h, p): {"retained": [], "moved": [], "slackness": []}
        for h in heuristics
        for p in policies
    }
    worth_lost: dict[int, list[float]] = {}
    fault_descriptions: list[str] = []

    for r in range(scale.n_runs):
        model = generate_model(params, seed=base_seed + r)
        rng = np.random.default_rng(base_seed * 17 + r)
        events = sample_faults(model, n_faults, rng=rng, kinds=kinds)
        injection = inject(model, events)
        fault_descriptions.append(injection.describe())
        for h in heuristics:
            heuristic = get_heuristic(h)
            if h in GA_HEURISTICS:
                result = best_of_trials(
                    heuristic, model, n_trials=scale.n_trials,
                    rng=base_seed * 11 + r, config=ga_config,
                    n_workers=n_workers, chaos=chaos,
                )
            else:
                result = heuristic(model)
            for p in policies:
                outcome = recover(injection, result.allocation, p)
                cell = samples[(h, p)]
                cell["retained"].append(outcome.worth_retained)
                cell["moved"].append(float(len(outcome.moved)))
                cell["slackness"].append(outcome.slackness_after)
            if rank_criticality and h == heuristics[0]:
                for crit in critical_machines(result.allocation, "shed"):
                    worth_lost.setdefault(crit.machine, []).append(
                        crit.worth_lost
                    )

    cells = {
        key: SurvivabilityCell(
            heuristic=key[0],
            policy=key[1],
            retained=mean_ci(vals["retained"]),
            moved=mean_ci(vals["moved"]),
            slackness=mean_ci(vals["slackness"]),
        )
        for key, vals in samples.items()
    }
    rows = [
        (
            cell.heuristic,
            cell.policy,
            f"{cell.retained.mean:.3f} ± {cell.retained.half_width:.3f}",
            f"{cell.moved.mean:.2f}",
            f"{cell.slackness.mean:.3f}",
        )
        for cell in cells.values()
    ]
    table = format_table(
        ["heuristic", "policy", "worth retained", "moved", "slackness"],
        rows,
    )

    criticality: list[tuple[int, ConfidenceInterval]] = sorted(
        ((j, mean_ci(vals)) for j, vals in worth_lost.items()),
        key=lambda item: (-item[1].mean, item[0]),
    )
    crit_rows = [
        (f"machine {j}", f"{ci.mean:.4g} ± {ci.half_width:.3g}")
        for j, ci in criticality
    ]
    criticality_table = (
        format_table(["machine", "mean worth lost (shed)"], crit_rows)
        if crit_rows
        else "(criticality ranking disabled)"
    )
    return {
        "cells": cells,
        "table": table,
        "criticality": criticality,
        "criticality_table": criticality_table,
        "faults": fault_descriptions,
    }
