"""Fractional-mapping LP upper bound (paper Section 7).

* :func:`build_upper_bound_lp` — the sparse formulation (constraints
  a–g, both objectives).
* :func:`upper_bound` — solve it with HiGHS and extract the bound.
"""

from .formulation import LPProblem, VariableIndex, build_upper_bound_lp
from .upper_bound import UpperBoundResult, solve_lp, upper_bound

__all__ = [
    "LPProblem",
    "UpperBoundResult",
    "VariableIndex",
    "build_upper_bound_lp",
    "solve_lp",
    "upper_bound",
]
