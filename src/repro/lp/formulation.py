"""Fractional-mapping LP formulation (Section 7).

Builds the paper's upper-bound linear program in sparse matrix form.
Decision variables:

* ``x[i, k, j]`` — fraction of application ``a^k_i`` assigned to machine
  ``j``;
* ``y[i, k, j1, j2]`` — fraction of the output of ``a^k_i`` (its transfer
  to ``a^k_{i+1}``) carried by the route ``j1 → j2``.

Constraints (paper labels in parentheses; all indices 0-based here):

* (a) ``Σ_j x[0, k, j] ≤ 1`` (partial objective) or ``= 1`` (complete);
* (b) ``Σ_j x[i, k, j] = Σ_j x[0, k, j]`` for ``i ≥ 1`` — equal fractions
  along a string;
* (c) ``x, y ≥ 0``;
* (d) ``x[i, k, j1] = Σ_{j2} y[i, k, j1, j2]`` — an application fraction
  emits the equivalent output fraction;
* (e) ``x[i+1, k, j2] = Σ_{j1} y[i, k, j1, j2]`` — an application
  fraction receives the equivalent input fraction;
* (f) machine utilization (eq. 10) at most 1;
* (g) route utilization (eq. 11) at most 1 for every inter-machine
  route.  Intra-machine ``y`` variables exist (they carry flow) but are
  unconstrained in capacity — their bandwidth is infinite.

Objectives:

* ``partial`` — maximize total worth ``Σ_k I[k] · f_k`` with
  ``f_k = Σ_j x[0, k, j]``.  The paper prints
  ``Σ_k Σ_i I[k] Σ_j x[i, k, j]``, which under (b) equals
  ``Σ_k I[k] · n_k · f_k`` — weighting strings by length, inconsistent
  with the Section-4 worth metric.  Only the unweighted form is a valid
  upper bound for the reported metric; the printed variant is available
  via ``weight_by_length=True`` (see DESIGN.md interpretation 1).
* ``complete`` — maximize system slackness: an extra variable ``λ`` with
  ``U_resource + λ ≤ 1`` for every machine and inter-machine route, all
  strings forced fully mapped.

The builder returns a :class:`LPProblem` that
:mod:`repro.lp.upper_bound` solves with HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..core.exceptions import ModelError
from ..core.model import SystemModel

__all__ = ["VariableIndex", "LPProblem", "build_upper_bound_lp"]


class VariableIndex:
    """Dense numbering of the ``x``/``y`` (and optional λ) variables.

    Provides O(1) translation between the paper's multi-index notation
    and flat column numbers, for both the builder and solution readers.
    """

    def __init__(self, model: SystemModel, with_slack_var: bool):
        M = model.n_machines
        self._x_base: list[int] = []
        self._y_base: list[int] = []
        cursor = 0
        for s in model.strings:
            self._x_base.append(cursor)
            cursor += s.n_apps * M
        for s in model.strings:
            self._y_base.append(cursor)
            cursor += max(s.n_apps - 1, 0) * M * M
        self.lambda_index: int | None = cursor if with_slack_var else None
        self.n_vars = cursor + (1 if with_slack_var else 0)
        self.n_machines = M
        self.model = model

    def x(self, i: int, k: int, j: int) -> int:
        """Column of ``x[i, k, j]``."""
        return self._x_base[k] + i * self.n_machines + j

    def y(self, i: int, k: int, j1: int, j2: int) -> int:
        """Column of ``y[i, k, j1, j2]`` (transfer ``i -> i+1``)."""
        M = self.n_machines
        return self._y_base[k] + (i * M + j1) * M + j2

    def x_block(self, i: int, k: int) -> slice:
        """Columns of ``x[i, k, :]``."""
        start = self._x_base[k] + i * self.n_machines
        return slice(start, start + self.n_machines)

    def y_block(self, i: int, k: int) -> slice:
        """Columns of ``y[i, k, :, :]`` flattened row-major."""
        M = self.n_machines
        start = self._y_base[k] + i * M * M
        return slice(start, start + M * M)


@dataclass
class LPProblem:
    """A maximization LP: ``max c·v`` s.t. ``A_ub v ≤ b_ub``,
    ``A_eq v = b_eq``, ``lb ≤ v ≤ ub``.

    ``scipy.optimize.linprog`` minimizes, so :func:`~repro.lp.solve_lp`
    negates ``c``.
    """

    c: np.ndarray
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float | None, float | None]]
    index: VariableIndex
    objective: str
    notes: dict = field(default_factory=dict)

    @property
    def n_vars(self) -> int:
        return self.index.n_vars


def build_upper_bound_lp(
    model: SystemModel,
    objective: str = "partial",
    weight_by_length: bool = False,
) -> LPProblem:
    """Construct the Section-7 LP for a model.

    Parameters
    ----------
    model:
        The problem instance.
    objective:
        ``"partial"`` (scenarios 1–2: maximize worth, fractional strings
        allowed) or ``"complete"`` (scenario 3: maximize slackness, all
        strings fully mapped).
    weight_by_length:
        Use the paper's printed (length-weighted) worth objective instead
        of the Section-4-consistent one.  Ignored for ``"complete"``.
    """
    if objective not in ("partial", "complete"):
        raise ModelError(
            f"objective must be 'partial' or 'complete', got {objective!r}"
        )
    complete = objective == "complete"
    idx = VariableIndex(model, with_slack_var=complete)
    M = model.n_machines
    net = model.network

    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    b_eq: list[float] = []
    ub_rows: list[int] = []
    ub_cols: list[int] = []
    ub_vals: list[float] = []
    b_ub: list[float] = []

    def add_eq(cols: list[int], vals: list[float], rhs: float) -> None:
        row = len(b_eq)
        eq_rows.extend([row] * len(cols))
        eq_cols.extend(cols)
        eq_vals.extend(vals)
        b_eq.append(rhs)

    def add_ub(cols: list[int], vals: list[float], rhs: float) -> None:
        row = len(b_ub)
        ub_rows.extend([row] * len(cols))
        ub_cols.extend(cols)
        ub_vals.extend(vals)
        b_ub.append(rhs)

    # ---- per-string structural constraints (a), (b), (d), (e) ---------------
    for k, s in enumerate(model.strings):
        first_cols = [idx.x(0, k, j) for j in range(M)]
        if complete:
            add_eq(first_cols, [1.0] * M, 1.0)  # (a) with equality
        else:
            add_ub(first_cols, [1.0] * M, 1.0)  # (a)
        for i in range(1, s.n_apps):  # (b)
            cols = [idx.x(i, k, j) for j in range(M)] + first_cols
            vals = [1.0] * M + [-1.0] * M
            add_eq(cols, vals, 0.0)
        for i in range(s.n_apps - 1):
            for j1 in range(M):  # (d)
                cols = [idx.y(i, k, j1, j2) for j2 in range(M)]
                cols.append(idx.x(i, k, j1))
                add_eq(cols, [1.0] * M + [-1.0], 0.0)
            for j2 in range(M):  # (e)
                cols = [idx.y(i, k, j1, j2) for j1 in range(M)]
                cols.append(idx.x(i + 1, k, j2))
                add_eq(cols, [1.0] * M + [-1.0], 0.0)

    # ---- capacity constraints (f), (g) ----------------------------------------
    lam = [idx.lambda_index] if complete else []
    lam_val = [1.0] if complete else []
    for j in range(M):  # (f): eq. 10
        cols: list[int] = []
        vals: list[float] = []
        for k, s in enumerate(model.strings):
            share = s.work[:, j] / s.period  # t*u/P per app on machine j
            for i in range(s.n_apps):
                cols.append(idx.x(i, k, j))
                vals.append(float(share[i]))
        add_ub(cols + lam, vals + lam_val, 1.0)
    for j1 in range(M):  # (g): eq. 11
        for j2 in range(M):
            if j1 == j2:
                continue
            inv_w = net.inv_bandwidth[j1, j2]
            cols = []
            vals = []
            for k, s in enumerate(model.strings):
                for i in range(s.n_apps - 1):
                    cols.append(idx.y(i, k, j1, j2))
                    vals.append(float(s.output_sizes[i] / s.period * inv_w))
            add_ub(cols + lam, vals + lam_val, 1.0)

    # ---- objective -----------------------------------------------------------
    c = np.zeros(idx.n_vars)
    if complete:
        c[idx.lambda_index] = 1.0
    else:
        for k, s in enumerate(model.strings):
            apps = range(s.n_apps) if weight_by_length else (0,)
            for i in apps:
                for j in range(M):
                    c[idx.x(i, k, j)] += s.worth

    bounds: list[tuple[float | None, float | None]] = [
        (0.0, 1.0)
    ] * (idx.n_vars - (1 if complete else 0))
    if complete:
        # Slackness can be negative only for over-committed fractional
        # mappings, which (f)/(g) forbid; cap at 1 (empty system).
        bounds = bounds + [(None, 1.0)]

    n_vars = idx.n_vars
    A_eq = sparse.coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n_vars)
    ).tocsr()
    A_ub = sparse.coo_matrix(
        (ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n_vars)
    ).tocsr()
    return LPProblem(
        c=c,
        A_ub=A_ub,
        b_ub=np.asarray(b_ub),
        A_eq=A_eq,
        b_eq=np.asarray(b_eq),
        bounds=bounds,
        index=idx,
        objective=objective,
        notes={
            "weight_by_length": weight_by_length,
            "n_eq": len(b_eq),
            "n_ub": len(b_ub),
        },
    )
