"""Property-based tests for the extension subsystems (dynamic workload
scaling, local search)."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import analyze
from repro.dynamic import scale_workload
from repro.heuristics import local_search, most_worth_first

from test_properties import models

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLocalSearchInvariants:
    @given(models())
    @COMMON
    def test_never_degrades_and_stays_feasible(self, model):
        initial = most_worth_first(model)
        improved = local_search(model, initial, max_rounds=3)
        assert improved.fitness >= initial.fitness
        assert analyze(improved.allocation).feasible


class TestWorkloadScalingAlgebra:
    @given(models(), st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0))
    @COMMON
    def test_scaling_composes(self, model, f1, f2):
        """scale(scale(m, f1), f2) == scale(m, f1*f2) element-wise."""
        n = model.n_strings
        a = scale_workload(
            scale_workload(model, np.full(n, f1)), np.full(n, f2)
        )
        b = scale_workload(model, np.full(n, f1 * f2))
        for sa, sb in zip(a.strings, b.strings):
            np.testing.assert_allclose(sa.comp_times, sb.comp_times)
            np.testing.assert_allclose(sa.output_sizes, sb.output_sizes)
