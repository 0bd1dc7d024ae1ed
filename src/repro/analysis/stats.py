"""Statistics for experiment aggregation.

The paper averages each metric over 100 simulation runs and reports
"reasonably tight 95% confidence intervals"; this module provides the
matching estimator (Student-t CI on the mean) plus small helpers used by
the experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ConfidenceInterval", "mean_ci", "paired_difference_ci"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with its confidence half-width."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.3g} (n={self.n})"


def mean_ci(
    samples: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a zero-width interval (there is no variance
    estimate); empty input is an error.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean = float(x.mean())
    if x.size == 1:
        return ConfidenceInterval(mean, 0.0, level, 1)
    sem = float(x.std(ddof=1) / np.sqrt(x.size))
    from scipy import stats  # deferred: scipy.stats costs ~1 s to import

    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=x.size - 1))
    return ConfidenceInterval(mean, t_crit * sem, level, int(x.size))


def paired_difference_ci(
    a: Sequence[float], b: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """CI of the paired difference ``a - b`` (same runs, two heuristics).

    The experiments run every heuristic on identical workload instances,
    so paired comparisons are far tighter than comparing the two
    marginal CIs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    return mean_ci(a - b, level=level)
