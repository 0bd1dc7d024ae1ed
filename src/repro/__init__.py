"""repro — reproduction of *Resource Allocation for Periodic Applications
in a Shipboard Environment* (Shestak, Chong, Maciejewski, Siegel,
Benmohamed, Wang, Daley — IPPS 2005).

The library implements the paper's Total Ship Computing Environment
model, its two-stage allocation feasibility analysis, the four proposed
mapping heuristics (MWF, TF, PSG, Seeded PSG built on the Incremental
Mapping Routine), the fractional-mapping LP upper bound, the synthetic
workload generator behind the paper's three evaluation scenarios, and a
discrete-event simulator validating the analytic timing model.

Quickstart
----------
>>> from repro import workload, heuristics
>>> model = workload.generate_model(workload.SCENARIO_3, seed=0)
>>> result = heuristics.most_worth_first(model)
>>> result.fitness.worth > 0
True

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
paper-to-module map.
"""

from typing import Any as _Any

from . import _lazy, core
from ._version import __version__
from .core import (
    Allocation,
    AllocationState,
    AppString,
    Fitness,
    Network,
    SystemModel,
    analyze,
    is_feasible,
)

#: Subpackages load on first attribute access (PEP 562), so a process
#: pays only for the layers it uses: ``import repro.service`` does not
#: import scipy or the experiment harness.
_LAZY = {
    "analysis": ".analysis",
    "des": ".des",
    "dynamic": ".dynamic",
    "experiments": ".experiments",
    "faults": ".faults",
    "fleet": ".fleet",
    "genitor": ".genitor",
    "heuristics": ".heuristics",
    "io_utils": ".io_utils",
    "lp": ".lp",
    "parallel": ".parallel",
    "quality": ".quality",
    "robustness": ".robustness",
    "service": ".service",
    "workload": ".workload",
}

__all__ = [
    "Allocation",
    "AllocationState",
    "AppString",
    "Fitness",
    "Network",
    "SystemModel",
    "__version__",
    "analysis",
    "analyze",
    "core",
    "des",
    "dynamic",
    "experiments",
    "faults",
    "fleet",
    "genitor",
    "heuristics",
    "io_utils",
    "is_feasible",
    "lp",
    "parallel",
    "quality",
    "robustness",
    "service",
    "workload",
]


def __getattr__(name: str) -> _Any:
    return _lazy.load(__name__, _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
