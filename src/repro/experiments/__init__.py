"""Experiment harness: the paper's evaluation, regenerated.

One entry point per paper artifact — ``fig2``/``fig3``/``fig4``/``fig5``,
``table1``, the runtime comparison, and the Section-5 ablations — built
on a shared multi-run :func:`run_experiment` engine with documented
scale presets (``smoke`` / ``default`` / ``paper``).

Each experiment module loads on first access (PEP 562), so the recovery
soak's subprocesses and ``repro --help`` skip the LP bound.
"""

from typing import Any as _Any

from .. import _lazy

_LAZY = {
    "bias_sweep": ".ablations",
    "crossover_ablation": ".ablations",
    "heterogeneity_ablation": ".ablations",
    "seeding_ablation": ".ablations",
    "stop_rule_ablation": ".ablations",
    "ChaosSoakRound": ".chaos_soak",
    "FleetChaosRound": ".chaos_soak",
    "run_chaos_soak": ".chaos_soak",
    "ConvergenceTrace": ".convergence",
    "run_convergence": ".convergence",
    "FIG2_CASES": ".fig2",
    "Fig2Case": ".fig2",
    "build_case_model": ".fig2",
    "run_fig2": ".fig2",
    "FIGURES": ".figures",
    "FigureResult": ".figures",
    "fig3": ".figures",
    "fig4": ".figures",
    "fig5": ".figures",
    "run_figure": ".figures",
    "KILL_PHASES": ".recovery",
    "KillRound": ".recovery",
    "RecoveryConfig": ".recovery",
    "RecoverySoakReport": ".recovery",
    "TickClock": ".recovery",
    "run_recovery_child": ".recovery",
    "run_recovery_soak": ".recovery",
    "ReportSection": ".report",
    "ReproductionReport": ".report",
    "full_report": ".report",
    "SCALES": ".runner",
    "ExperimentCheckpoint": ".runner",
    "ExperimentConfig": ".runner",
    "ExperimentOutcome": ".runner",
    "ExperimentScale": ".runner",
    "RunFailure": ".runner",
    "RunRecord": ".runner",
    "RunTimeoutError": ".runner",
    "run_experiment": ".runner",
    "RuntimeRow": ".runtime_table",
    "run_runtime_table": ".runtime_table",
    "SurgeCurve": ".surge_curve",
    "run_surge_curves": ".surge_curve",
    "SurvivabilityCell": ".survivability",
    "run_survivability": ".survivability",
    "render_table1": ".table1",
    "table1_rows": ".table1",
}

__all__ = [
    "FIG2_CASES",
    "FIGURES",
    "KILL_PHASES",
    "ChaosSoakRound",
    "FleetChaosRound",
    "KillRound",
    "RecoveryConfig",
    "RecoverySoakReport",
    "TickClock",
    "ExperimentCheckpoint",
    "ExperimentConfig",
    "ExperimentOutcome",
    "ConvergenceTrace",
    "ExperimentScale",
    "Fig2Case",
    "FigureResult",
    "ReportSection",
    "ReproductionReport",
    "RunFailure",
    "RunRecord",
    "RunTimeoutError",
    "RuntimeRow",
    "SurgeCurve",
    "SurvivabilityCell",
    "SCALES",
    "bias_sweep",
    "build_case_model",
    "crossover_ablation",
    "fig3",
    "fig4",
    "fig5",
    "full_report",
    "heterogeneity_ablation",
    "render_table1",
    "run_chaos_soak",
    "run_convergence",
    "run_experiment",
    "run_fig2",
    "run_figure",
    "run_recovery_child",
    "run_recovery_soak",
    "run_runtime_table",
    "run_surge_curves",
    "run_survivability",
    "seeding_ablation",
    "stop_rule_ablation",
    "table1_rows",
]


def __getattr__(name: str) -> _Any:
    return _lazy.load(__name__, _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
