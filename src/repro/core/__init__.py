"""Core problem model, feasibility analysis, and performance metric.

This subpackage is the paper's Sections 2–4: the TSCE system model, the
two-stage feasibility analysis, and the two-component performance goal.
Everything else in the library (heuristics, LP bound, simulators,
experiments) is built on these primitives.
"""

from .allocation import Allocation
from .exceptions import (
    AllocationError,
    InfeasibleError,
    ModelError,
    ReproError,
    SimulationError,
    SolverError,
)
from .feasibility import (
    DEFAULT_TOL,
    FeasibilityReport,
    Violation,
    analyze,
    is_feasible,
)
from .metrics import Fitness, evaluate, system_slackness
from .model import WORTH_FACTORS, AppString, Machine, Network, SystemModel
from .numeric import ABS_TOL, REL_TOL, is_zero, isclose
from .profile import ProfileCache, StringProfile, compute_profile
from .state import (
    AllocationState,
    RecordAllocationState,
    RejectionReason,
    StateSnapshot,
)
from .tightness import (
    average_tightness,
    priority_key,
    relative_tightness,
    tightness_rank_order,
)
from .timing import StringTiming, TimingEstimator
from .utilization import (
    UtilizationSnapshot,
    machine_utilization,
    route_utilization,
    string_machine_load,
    string_route_load,
)

__all__ = [
    "ABS_TOL",
    "Allocation",
    "AllocationError",
    "AllocationState",
    "AppString",
    "DEFAULT_TOL",
    "FeasibilityReport",
    "Fitness",
    "InfeasibleError",
    "Machine",
    "ModelError",
    "Network",
    "ProfileCache",
    "REL_TOL",
    "RecordAllocationState",
    "RejectionReason",
    "ReproError",
    "SimulationError",
    "SolverError",
    "StateSnapshot",
    "StringProfile",
    "StringTiming",
    "SystemModel",
    "TimingEstimator",
    "UtilizationSnapshot",
    "Violation",
    "WORTH_FACTORS",
    "analyze",
    "average_tightness",
    "compute_profile",
    "evaluate",
    "is_feasible",
    "is_zero",
    "isclose",
    "machine_utilization",
    "priority_key",
    "relative_tightness",
    "route_utilization",
    "string_machine_load",
    "string_route_load",
    "system_slackness",
    "tightness_rank_order",
]
