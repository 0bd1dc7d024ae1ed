"""The paper's allocation heuristics (Section 5) plus baselines.

* :func:`imr_map_string` — the Incremental Mapping Routine for one string.
* :func:`most_worth_first` / :func:`tightest_first` — single-shot
  orderings projected through the IMR.
* :func:`psg` / :func:`seeded_psg` — GENITOR search over the permutation
  space.
* :mod:`~repro.heuristics.baselines` — random/adversarial controls.
"""

from .base import HeuristicResult, timed_section
from .baselines import (
    best_random_order,
    least_worth_first,
    random_order_once,
    skip_ahead,
)
from .imr import imr_map_string
from .local_search import local_search, mwf_with_local_search
from .mwf import most_worth_first, mwf_order
from .ordering import SequenceOutcome, allocate_sequence
from .priority_class import class_based, class_order
from .psg import best_of_trials, psg, seeded_psg
from .registry import (
    GA_HEURISTICS,
    HEURISTICS,
    PAPER_HEURISTICS,
    available,
    get_heuristic,
    is_interruptible,
)
from .tf import tf_order, tightest_first

__all__ = [
    "GA_HEURISTICS",
    "HEURISTICS",
    "HeuristicResult",
    "PAPER_HEURISTICS",
    "SequenceOutcome",
    "allocate_sequence",
    "available",
    "best_of_trials",
    "best_random_order",
    "class_based",
    "class_order",
    "get_heuristic",
    "imr_map_string",
    "is_interruptible",
    "least_worth_first",
    "local_search",
    "most_worth_first",
    "mwf_with_local_search",
    "mwf_order",
    "psg",
    "random_order_once",
    "seeded_psg",
    "skip_ahead",
    "tf_order",
    "tightest_first",
    "timed_section",
]
