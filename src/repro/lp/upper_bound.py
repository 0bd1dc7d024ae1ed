"""Solve the Section-7 LP and extract the upper bound.

The paper used the commercial Lingo 9.0 package; we substitute
``scipy.optimize.linprog`` with the HiGHS backend (documented in
DESIGN.md).  LP global optima are solver-independent, so the bound is
the same.  The tests check it against closed-form LP values and against
exact optima of instances small enough to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..core.exceptions import SolverError
from ..core.model import SystemModel
from .formulation import LPProblem, build_upper_bound_lp

__all__ = ["UpperBoundResult", "solve_lp", "upper_bound"]


@dataclass
class UpperBoundResult:
    """Solved upper bound.

    Attributes
    ----------
    objective:
        ``"partial"`` (value = maximum fractional total worth) or
        ``"complete"`` (value = maximum achievable slackness Λ; a
        negative value proves that no complete mapping passes stage 1).
    value:
        The optimal objective value — the bound.
    string_fractions:
        ``f_k`` per string: the fraction of string ``k`` mapped in the
        optimal fractional solution.
    machine_utilization / route_utilization:
        Resource utilizations of the optimal fractional mapping.
    """

    objective: str
    value: float
    string_fractions: np.ndarray
    machine_utilization: np.ndarray
    route_utilization: np.ndarray
    stats: dict = field(default_factory=dict)

    @property
    def total_worth(self) -> float:
        """Fractional total worth of the solution (equals ``value`` for
        the partial objective)."""
        return float(self.string_fractions @ self._worths)

    _worths: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]


def solve_lp(problem: LPProblem) -> np.ndarray:
    """Solve a maximization :class:`LPProblem` with HiGHS; returns the
    variable vector."""
    res = linprog(
        -problem.c,
        A_ub=problem.A_ub,
        b_ub=problem.b_ub,
        A_eq=problem.A_eq,
        b_eq=problem.b_eq,
        bounds=problem.bounds,
        method="highs",
    )
    if not res.success:
        raise SolverError(f"HiGHS failed: {res.message}")
    return np.asarray(res.x)


def upper_bound(
    model: SystemModel,
    objective: str = "partial",
    weight_by_length: bool = False,
) -> UpperBoundResult:
    """Compute the paper's UB for a model.

    Parameters
    ----------
    model:
        The problem instance.
    objective:
        ``"partial"`` for scenarios 1–2 (maximum total worth),
        ``"complete"`` for scenario 3 (maximum slackness with every
        string fully mapped).
    weight_by_length:
        Use the printed, length-weighted worth objective (see
        DESIGN.md); the returned ``value`` is then *not* comparable to
        the Section-4 worth metric.
    """
    problem = build_upper_bound_lp(
        model, objective=objective, weight_by_length=weight_by_length
    )
    x = solve_lp(problem)
    idx = problem.index
    M = model.n_machines

    fractions = np.array(
        [float(x[idx.x_block(0, k)].sum()) for k in range(model.n_strings)]
    )
    machine_util = np.zeros(M)
    for j in range(M):
        total = 0.0
        for k, s in enumerate(model.strings):
            for i in range(s.n_apps):
                total += s.work[i, j] / s.period * x[idx.x(i, k, j)]
        machine_util[j] = total
    route_util = np.zeros((M, M))
    for k, s in enumerate(model.strings):
        for i in range(s.n_apps - 1):
            block = x[idx.y_block(i, k)].reshape(M, M)
            route_util += (
                s.output_sizes[i] / s.period * model.network.inv_bandwidth
            ) * block

    value = float(problem.c @ x)
    result = UpperBoundResult(
        objective=objective,
        value=value,
        string_fractions=fractions,
        machine_utilization=machine_util,
        route_utilization=route_util,
        stats=dict(problem.notes),
    )
    result._worths = np.array([s.worth for s in model.strings])
    return result
