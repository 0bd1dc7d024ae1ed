"""Boundary behavior of the shared helpers in repro.core.numeric.

These back the RPR001 fix sites: bias == 1.0 (genitor/bias.py),
size_factor == 1.0 (experiments/runner.py), and a zero collateral
capacity (faults/events.py)."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.numeric import ABS_TOL, REL_TOL, is_zero, isclose, pairwise_sum


def test_exact_equality_is_close():
    assert isclose(1.0, 1.0)
    assert isclose(0.0, 0.0)


def test_accumulated_rounding_is_close():
    # 0.1 * 3 != 0.3 exactly — the motivating case for RPR001
    assert 0.1 * 3 != 0.3
    assert isclose(0.1 * 3, 0.3)


def test_one_ulp_apart_is_close():
    x = 1.0
    assert isclose(x, math.nextafter(x, 2.0))


def test_clearly_different_values_are_not_close():
    assert not isclose(1.0, 1.0 + 1e-6)
    assert not isclose(0.0, 1e-9)


def test_relative_tolerance_scales_with_magnitude():
    big = 1e12
    assert isclose(big, big * (1 + REL_TOL / 2))
    assert not isclose(big, big * (1 + 10 * REL_TOL))


def test_abs_tol_covers_near_zero():
    # relative tolerance alone would reject anything vs exactly 0.0
    assert isclose(0.0, ABS_TOL / 2)
    assert not isclose(0.0, ABS_TOL * 10)


def test_custom_tolerances_are_honored():
    assert isclose(1.0, 1.01, rel_tol=0.1)
    assert not isclose(1.0, 1.01, rel_tol=1e-3)
    assert isclose(0.0, 0.5, abs_tol=1.0)


def test_is_zero_boundaries():
    assert is_zero(0.0)
    assert is_zero(ABS_TOL)  # inclusive boundary
    assert is_zero(-ABS_TOL)
    assert not is_zero(ABS_TOL * 2)
    assert not is_zero(1e-6)


def test_is_zero_custom_tolerance():
    assert is_zero(0.5, abs_tol=1.0)
    assert not is_zero(0.5, abs_tol=0.1)


def test_bias_boundary_replay():
    # the exact comparison RPR001 replaced at genitor/bias.py:46
    bias = 0.8 + 0.2  # accumulates rounding error
    assert isclose(bias, 1.0)


def test_collateral_capacity_zero_replay():
    # faults/events.py reads a route failure off
    # is_zero(collateral_capacity): a capacity that rounding left a few
    # ulps from 0.0 must still fail the route, not degrade it
    capacity = 1.0 - 1.0
    assert is_zero(capacity)
    capacity_noisy = 0.1 + 0.2 - 0.3  # ~5.5e-17, still "zero"
    assert capacity_noisy != 0.0
    assert is_zero(capacity_noisy)


_TERMS = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False) | st.floats(
    min_value=1e-9, max_value=1e-3
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=200))
def test_pairwise_sum_matches_numpy(values):
    """Bit-identical to ``np.add.reduce`` across the sequential (< 8),
    unrolled (8..128) and recursive (> 128) regimes."""
    expected = float(np.add.reduce(np.asarray(values)))
    assert pairwise_sum(values).hex() == expected.hex()


def test_pairwise_sum_every_length():
    rng = np.random.default_rng(0)
    for n in range(1, 201):
        values = (rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)).tolist()
        expected = float(np.add.reduce(np.asarray(values)))
        assert pairwise_sum(values).hex() == expected.hex(), n
    assert pairwise_sum([]) == 0.0
