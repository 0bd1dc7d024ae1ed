"""Epsilon-safe floating-point comparison helpers.

Every feasibility quantity in the paper is an accumulated float — machine
utilization (eq. 2) sums per-application loads, route utilization (eq. 3)
sums transfer fractions, and the latency bound (eq. 4) chains eq. (5)/(6)
estimates — so its bit pattern depends on summation order.  Raw ``==`` /
``!=`` against such quantities is therefore representation-dependent, and
rule RPR001 of :mod:`repro.quality` bans it across the codebase.  These
helpers are the sanctioned replacement; they share their default
tolerances with :data:`repro.core.feasibility.DEFAULT_TOL` so "equal for
comparison purposes" means the same thing everywhere.

:func:`pairwise_sum` fixes the other side of that coin: it adds a list of
floats in exactly the order ``np.add.reduce`` does, so a scalar kernel
can reproduce a NumPy sum bit for bit without building an array.
"""

from __future__ import annotations

import math

__all__ = ["ABS_TOL", "REL_TOL", "isclose", "is_zero", "pairwise_sum"]

#: Default relative tolerance, matching the feasibility analysis
#: (:data:`repro.core.feasibility.DEFAULT_TOL`).
REL_TOL = 1e-9

#: Default absolute tolerance; needed for comparisons against zero, where
#: a relative tolerance alone never matches.
ABS_TOL = 1e-12


def isclose(
    a: float, b: float, *, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL
) -> bool:
    """Whether ``a`` and ``b`` are equal up to accumulation noise.

    Thin wrapper over :func:`math.isclose` with the project-wide default
    tolerances.  Symmetric in its arguments and safe near zero (the
    absolute tolerance handles the ``b == 0`` case that defeats purely
    relative comparison).
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def is_zero(x: float, *, abs_tol: float = ABS_TOL) -> bool:
    """Whether ``x`` is zero up to accumulation noise.

    Comparison against zero uses an absolute tolerance only — a relative
    tolerance is meaningless when the reference value is 0.0.
    """
    return abs(x) <= abs_tol


def pairwise_sum(values: list[float]) -> float:
    """``float(np.add.reduce(np.asarray(values)))``, bit for bit.

    Replays NumPy's float64 pairwise summation: fewer than 8 terms add
    left to right from 0.0; up to 128 terms run eight interleaved
    partial sums combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    plus the leftover tail; longer runs split at a multiple of 8 near
    the middle and recurse.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(xs: list[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += xs[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += xs[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)
