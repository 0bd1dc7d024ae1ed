"""Surge curves: worth retained as a function of workload surge.

The paper's justification for slackness is qualitative ("potential to
absorb unpredictable increases in input workload").  This experiment
draws the quantitative picture the claim implies: for each heuristic's
initial allocation, scale the whole workload by ``1 + δ`` over a grid
of δ values, carry the mapping forward (shedding strings whose old
placement no longer passes the two-stage analysis, highest worth kept
first), and plot the retained-worth fraction against δ.

A more robust initial allocation shows a curve that stays at 1.0 longer
and decays more slowly.  The expected shape: the GA heuristics (which
maximize slackness after worth) dominate MWF/TF at moderate δ, while
all curves converge at extreme surges where capacity, not placement,
binds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import ConfidenceInterval, mean_ci
from ..analysis.tables import format_table
from ..dynamic.perturbation import scale_workload
from ..dynamic.policies import carry_forward
from ..core.allocation import Allocation
from ..genitor import GenitorConfig
from ..heuristics import GA_HEURISTICS, best_of_trials, get_heuristic
from ..workload import SCENARIO_3, ScenarioParameters, generate_model
from .runner import SCALES, ExperimentScale

__all__ = ["SurgeCurve", "run_surge_curves"]


@dataclass
class SurgeCurve:
    """Mean retained-worth fraction per surge level for one heuristic."""

    heuristic: str
    deltas: np.ndarray
    retention: dict[float, ConfidenceInterval] = field(default_factory=dict)

    def means(self) -> np.ndarray:
        return np.array([self.retention[d].mean for d in self.deltas])

    def knee(self, threshold: float = 0.999) -> float:
        """Largest grid δ at which mean retention is still ≥ threshold."""
        best = 0.0
        for d in self.deltas:
            if self.retention[d].mean >= threshold:
                best = float(d)
        return best

    def is_nonincreasing(self, tol: float = 1e-9) -> bool:
        means = self.means()
        return bool(np.all(np.diff(means) <= tol))


def run_surge_curves(
    scenario: ScenarioParameters = SCENARIO_3,
    scale: str | ExperimentScale = "smoke",
    heuristics: tuple[str, ...] = ("mwf", "tf", "psg", "seeded-psg"),
    deltas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    base_seed: int = 8_000,
) -> dict:
    """Compute surge curves for several heuristics, paired per workload.

    Returns ``{"curves": {name: SurgeCurve}, "table": str}``.
    """
    if isinstance(scale, str):
        scale = SCALES[scale]
    params = scale.apply(scenario)
    ga_config: GenitorConfig = scale.genitor_config()
    deltas_arr = np.asarray(sorted(deltas), dtype=float)

    samples: dict[str, dict[float, list[float]]] = {
        name: {float(d): [] for d in deltas_arr} for name in heuristics
    }
    for r in range(scale.n_runs):
        model = generate_model(params, seed=base_seed + r)
        for name in heuristics:
            heuristic = get_heuristic(name)
            if name in GA_HEURISTICS:
                result = best_of_trials(
                    heuristic, model, n_trials=scale.n_trials,
                    rng=base_seed * 11 + r, config=ga_config,
                )
            else:
                result = heuristic(model)
            planned_worth = result.fitness.worth
            for d in deltas_arr:
                if planned_worth == 0:
                    samples[name][float(d)].append(1.0)
                    continue
                surged = scale_workload(
                    model, np.full(model.n_strings, 1.0 + d)
                )
                moved = Allocation(surged, {
                    k: result.allocation.machines_for(k)
                    for k in result.allocation
                })
                state, _shed = carry_forward(surged, moved)
                samples[name][float(d)].append(
                    state.total_worth / planned_worth
                )

    curves = {
        name: SurgeCurve(
            heuristic=name,
            deltas=deltas_arr,
            retention={
                float(d): mean_ci(vals)
                for d, vals in per_delta.items()
            },
        )
        for name, per_delta in samples.items()
    }
    rows = []
    for name, curve in curves.items():
        rows.append(
            (name,) + tuple(
                f"{curve.retention[float(d)].mean:.3f}" for d in deltas_arr
            )
        )
    table = format_table(
        ["heuristic"] + [f"δ={d:g}" for d in deltas_arr], rows
    )
    return {"curves": curves, "table": table, "deltas": deltas_arr}
