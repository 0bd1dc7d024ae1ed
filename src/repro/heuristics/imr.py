"""Incremental Mapping Routine (IMR) — Section 5.

The IMR maps the applications of a *single* string onto machines, guided
by the impact of each candidate assignment on resource utilization:

1. Start from the most computationally intensive application
   ``argmax_i t_av[i] · u_av[i] / P[k]`` and place it on the machine with
   minimum resulting utilization (eq. 2 with the candidate included).
2. Repeatedly pick the most intensive *unassigned* application and grow
   the assigned (always contiguous) region toward it, one application at
   a time.  Each intermediate application is placed on the machine
   minimizing the **maximum** of (a) the machine utilization with the
   application included and (b) the utilization of the route connecting
   it to its already-placed neighbour with the new transfer included —
   so network load is taken into account as the routine progresses.

Ties are broken by lowest machine index by default ("arbitrarily" in the
paper); pass a random generator for randomized tie-breaking.

The routine *derives* an assignment; it does not itself commit the string
to an :class:`~repro.core.state.AllocationState` or check feasibility —
that is the sequential allocator's job (:mod:`repro.heuristics.ordering`).

Two implementations produce bit-identical assignments: a vectorized one
(kept for randomized tie-breaking, where `_argmin_tie` needs the whole
score vector) and a plain-Python one used when ``rng is None``.  At the
paper's scenario sizes (M = 12) and on fleet shards (M ≈ 32) every NumPy
expression here touches only a few dozen elements, so per-call ufunc
dispatch dominates; the scalar loop over cached ``AppString.imr_lists()``
constants performs the exact same IEEE-754 operations in the same order
without that overhead.  It reads one committed route row or column per
step and keeps the string's own partial loads sparse, so one call costs
``O(n · M)`` rather than the ``O(M²)`` of copying the route matrix.
"""

from __future__ import annotations

import numpy as np

from ..core.numeric import ABS_TOL, REL_TOL
from ..core.state import AllocationState

__all__ = ["imr_map_string"]


def _argmin_tie(values: np.ndarray, rng: np.random.Generator | None) -> int:
    """Index of the minimum; ties broken by lowest index or randomly.

    A candidate ties with the minimum when it is equal up to accumulation
    noise in the :func:`repro.core.numeric.isclose` sense (vectorized here:
    ``values >= m`` so the symmetric ``|values - m|`` reduces to the plain
    difference).  The utilization scores being compared are sums of
    per-application loads, so their low bits depend on summation order — a
    fixed ``1e-15`` cutoff used to miss ties whose noise exceeded one ulp.
    """
    if rng is None:
        return int(np.argmin(values))
    m = float(values.min())
    tol = np.maximum(REL_TOL * np.maximum(np.abs(values), abs(m)), ABS_TOL)
    candidates = np.flatnonzero(values - m <= tol)
    return int(rng.choice(candidates))


def imr_map_string(
    state: AllocationState,
    string_id: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Derive the IMR machine assignment for one string.

    Parameters
    ----------
    state:
        Current allocation state; its committed machine/route utilizations
        guide the greedy choices.  ``state`` is *not* modified.
    string_id:
        The string to map.
    rng:
        Optional generator for random tie-breaking between machines with
        equal utilization impact (default: lowest index wins).

    Returns
    -------
    numpy.ndarray
        Machine index per application (``m[i, k]``), dtype int64.
    """
    if rng is None:
        return _imr_fast(state, string_id)
    return _imr_vectorized(state, string_id, rng)


def _imr_vectorized(
    state: AllocationState,
    string_id: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """The IMR over whole NumPy score vectors.

    Randomized tie-breaking needs every machine's score, so
    :func:`imr_map_string` runs this body when given a generator.  With
    ``rng=None`` it breaks ties by lowest index and returns exactly what
    :func:`_imr_fast` returns.
    """
    model = state.model
    s = model.strings[string_id]
    net = model.network
    M = model.n_machines
    n = s.n_apps

    # Utilization impact of each app on each machine: work / period.
    app_share = s.work / s.period  # (n, M)
    # Route demand of each transfer on each route: O / (P * w).
    # transfer_demand[i] is a scalar (bytes/sec); utilization on a route
    # is demand * inv_bandwidth.
    transfer_demand = (
        s.output_sizes / s.period if n > 1 else np.empty(0)
    )

    # Partial (uncommitted) loads added by this routine so far.
    part_machine = np.zeros(M)
    part_route = np.zeros((M, M))
    assignment = np.full(n, -1, dtype=np.int64)

    intensity = s.computational_intensity()
    # Step 1-2: place the most intensive application by machine
    # utilization alone.
    order_seed = int(np.argmax(intensity))
    cand = state.machine_util + part_machine + app_share[order_seed]
    j0 = _argmin_tie(cand, rng)
    assignment[order_seed] = j0
    part_machine[j0] += app_share[order_seed, j0]

    left = right = order_seed
    assigned = 1

    def place(i: int, neighbour: int, incoming: bool) -> None:
        """Assign app ``i``; its transfer connects to already-placed
        ``neighbour``.  ``incoming=True`` means the route runs
        neighbour -> i (rightward growth), else i -> neighbour."""
        nonlocal assigned
        m_util = state.machine_util + part_machine + app_share[i]
        jn = int(assignment[neighbour])
        if incoming:
            demand = transfer_demand[i - 1]
            r_util = (
                state.route_util[jn, :]
                + part_route[jn, :]
                + demand * net.inv_bandwidth[jn, :]
            )
        else:
            demand = transfer_demand[i]
            r_util = (
                state.route_util[:, jn]
                + part_route[:, jn]
                + demand * net.inv_bandwidth[:, jn]
            )
        score = np.maximum(m_util, r_util)
        j = _argmin_tie(score, rng)
        assignment[i] = j
        part_machine[j] += app_share[i, j]
        if incoming:
            part_route[jn, j] += demand * net.inv_bandwidth[jn, j]
        else:
            part_route[j, jn] += demand * net.inv_bandwidth[j, jn]
        assigned += 1

    while assigned < n:
        # Step 4b: next most intensive unassigned application.
        masked = np.where(assignment < 0, intensity, -np.inf)
        target = int(np.argmax(masked))
        # Step 4c: grow rightward to reach the target.
        while target > right:
            right += 1
            place(right, right - 1, incoming=True)
        # Step 4d: grow leftward to reach the target.
        while target < left:
            left -= 1
            place(left, left + 1, incoming=False)

    return assignment


def _imr_fast(state: AllocationState, string_id: int) -> np.ndarray:
    """Deterministic (``rng is None``) IMR over plain Python lists.

    Bit-identical to :func:`_imr_vectorized` with lowest-index ties:
    each machine score is ``(committed + partial) + candidate`` and each
    route score ``(committed + partial) + demand * inv_bandwidth`` — the
    same left-to-right IEEE-754 additions NumPy performs elementwise —
    and minima are taken with a strict ``<`` scan, which selects the
    first minimum exactly like ``np.argmin``.  Target selection walks
    the cached descending-stable intensity order, equivalent to
    ``argmax`` over the unassigned set (ties at equal intensity keep
    ascending index order).

    A step reads only the committed route row (rightward growth) or
    column (leftward growth) it scores, and the string's own partial
    loads stay sparse: a machine or route it has not loaded yet adds
    nothing, and ``x + 0.0 == x`` for the non-negative committed loads.
    So a call costs ``O(n · M)``, not ``O(M²)``.
    """
    model = state.model
    s = model.strings[string_id]
    M = model.n_machines
    n = s.n_apps

    share_rows, transfer_demand, order = s.imr_lists()
    committed: list[float] = state.machine_util.tolist()
    # committed + partial machine load, updated where the string lands
    mu = committed.copy()
    part_machine: dict[int, float] = {}
    part_route: dict[tuple[int, int], float] = {}
    assignment = [-1] * n

    # Step 1-2: place the most intensive application by machine
    # utilization alone (first minimum wins, as np.argmin does).
    seed = order[0]
    sh = share_rows[seed]
    best_j = 0
    best_v = mu[0] + sh[0]
    for j in range(1, M):
        v = mu[j] + sh[j]
        if v < best_v:
            best_j = j
            best_v = v
    assignment[seed] = best_j
    part_machine[best_j] = sh[best_j]
    mu[best_j] = committed[best_j] + sh[best_j]
    if n == 1:
        return np.array(assignment, dtype=np.int64)

    route_util = state.route_util
    inv_rows = model.network.inv_bandwidth_rows()
    inv_cols = model.network.inv_bandwidth_cols()

    def place(i: int, jn: int, incoming: bool) -> None:
        """Assign app ``i``; its transfer connects to the already-placed
        neighbour on machine ``jn`` (``incoming=True`` means the route
        runs neighbour -> i, else i -> neighbour)."""
        sh = share_rows[i]
        if incoming:
            demand = transfer_demand[i - 1]
            ru: list[float] = route_util[jn].tolist()
            inv = inv_rows[jn]
            for (a, b), load in part_route.items():
                if a == jn:
                    ru[b] += load
        else:
            demand = transfer_demand[i]
            ru = route_util[:, jn].tolist()
            inv = inv_cols[jn]
            for (a, b), load in part_route.items():
                if b == jn:
                    ru[a] += load
        best_j = 0
        m_v = mu[0] + sh[0]
        r_v = ru[0] + demand * inv[0]
        best_v = m_v if m_v > r_v else r_v
        for j in range(1, M):
            m_v = mu[j] + sh[j]
            r_v = ru[j] + demand * inv[j]
            v = m_v if m_v > r_v else r_v
            if v < best_v:
                best_j = j
                best_v = v
        route = (jn, best_j) if incoming else (best_j, jn)
        part_route[route] = part_route.get(route, 0.0) + demand * inv[best_j]
        assignment[i] = best_j
        load = part_machine.get(best_j, 0.0) + sh[best_j]
        part_machine[best_j] = load
        mu[best_j] = committed[best_j] + load

    left = right = seed
    assigned = 1
    pos = 0
    while assigned < n:
        # Step 4b: next most intensive unassigned application.  Earlier
        # entries in the order stay assigned, so the scan pointer only
        # moves forward.
        while assignment[order[pos]] >= 0:
            pos += 1
        target = order[pos]
        # Step 4c: grow rightward to reach the target.
        while target > right:
            right += 1
            place(right, assignment[right - 1], incoming=True)
            assigned += 1
        # Step 4d: grow leftward to reach the target.
        while target < left:
            left -= 1
            place(left, assignment[left + 1], incoming=False)
            assigned += 1

    return np.array(assignment, dtype=np.int64)
