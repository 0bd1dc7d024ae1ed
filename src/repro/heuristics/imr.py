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

One implementation serves both tie rules.  At the paper's scenario
sizes (M = 12), in the online service (M = 6) and on fleet shards
(M ≈ 32) a score vector has only a few dozen entries, so NumPy's
per-call ufunc dispatch would dominate; the routine instead scores
machines over cached Python-list constants (``AppString.imr_lists()``,
the network's inverse-bandwidth rows and columns, and the allocation
state's live utilization lists).  Each machine score is
``(committed + partial) + candidate`` and each route score
``(committed + partial) + demand * inv_bandwidth`` — the IEEE-754
additions an elementwise NumPy expression would perform — so a result
never depends on how the scores are computed.

With ``rng=None`` the first minimum wins, as ``np.argmin`` would pick.
With a generator, every machine within :func:`repro.core.numeric.isclose`
noise of the minimum is a candidate and one is drawn with
``rng.integers(0, k)`` — the draw ``rng.choice(candidates)`` makes, so
the generator ends in the same state; a lone candidate draws nothing.

A step reads only the committed route row (rightward growth) or column
(leftward growth) it scores, and the string's own partial loads stay
sparse: a machine or route it has not loaded yet adds nothing, and
``x + 0.0 == x`` for the committed loads.  So a call costs ``O(n · M)``,
not the ``O(M²)`` of copying the route matrix.
"""

from __future__ import annotations

import numpy as np

from ..core.numeric import ABS_TOL, REL_TOL
from ..core.state import AllocationState

__all__ = ["imr_map_string"]


def _pick_tie(scores: list[float], rng: np.random.Generator) -> int:
    """Random index among the scores tied with the minimum.

    A score ties when it is equal up to accumulation noise in the
    :func:`repro.core.numeric.isclose` sense (every score is ``>= m``,
    so the symmetric ``|v - m|`` reduces to the plain difference).  The
    scores are sums of per-application loads whose low bits depend on
    summation order, so a fixed ``1e-15`` cutoff would miss ties whose
    noise exceeds one ulp.  ``cands[rng.integers(0, k)]`` is the draw
    ``rng.choice(cands)`` makes; a lone candidate draws nothing.
    """
    m = min(scores)
    am = abs(m)
    cands = [
        j
        for j, v in enumerate(scores)
        if v - m <= max(REL_TOL * max(abs(v), am), ABS_TOL)
    ]
    if len(cands) == 1:
        return cands[0]
    return cands[int(rng.integers(0, len(cands)))]


def imr_map_string(
    state: AllocationState,
    string_id: int,
    rng: np.random.Generator | None = None,
) -> list[int]:
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
    list[int]
        Machine index per application (``m[i, k]``).  A plain list:
        :class:`~repro.core.profile.ProfileCache` keys on it directly and
        builds the read-only int64 array only on a profile miss.

    Target selection walks the cached descending-stable intensity order,
    equivalent to ``argmax`` over the unassigned set (ties at equal
    intensity keep ascending index order).
    """
    model = state.model
    s = model.strings[string_id]
    M = model.n_machines
    n = s.n_apps

    share_rows, transfer_demand, order = s.imr_lists()
    committed = state.machine_loads()
    # committed + partial machine load, updated where the string lands
    mu = committed.copy()
    part_machine: dict[int, float] = {}
    assignment = [-1] * n

    # Step 1-2: place the most intensive application by machine
    # utilization alone.
    seed = order[0]
    sh = share_rows[seed]
    if rng is None:
        best_j = 0
        best_v = mu[0] + sh[0]
        for j in range(1, M):
            v = mu[j] + sh[j]
            if v < best_v:
                best_j = j
                best_v = v
    else:
        best_j = _pick_tie([mu[j] + sh[j] for j in range(M)], rng)
    assignment[seed] = best_j
    part_machine[best_j] = sh[best_j]
    mu[best_j] = committed[best_j] + sh[best_j]
    if n == 1:
        return assignment

    inv_rows = model.network.inv_bandwidth_rows()
    inv_cols = model.network.inv_bandwidth_cols()
    route_row = state.route_row
    route_col = state.route_col
    # the string's own transfer loads, by sending and by receiving machine
    part_out: dict[int, dict[int, float]] = {}
    part_in: dict[int, dict[int, float]] = {}

    left = right = seed
    pos = 0
    for _ in range(n - 1):
        # Step 4b: next most intensive unassigned application.  Earlier
        # entries in the order stay assigned, so the scan pointer only
        # moves forward.
        while assignment[order[pos]] >= 0:
            pos += 1
        target = order[pos]
        # Step 4c/4d: grow one application toward the target; its
        # transfer connects to the placed neighbour on machine ``jn``.
        incoming = target > right
        if incoming:
            right += 1
            i = right
            jn = assignment[i - 1]
            demand = transfer_demand[i - 1]
            ru = route_row(jn)  # route jn -> candidate
            inv = inv_rows[jn]
            own = part_out.get(jn)
        else:
            left -= 1
            i = left
            jn = assignment[i + 1]
            demand = transfer_demand[i]
            ru = route_col(jn)  # route candidate -> jn
            inv = inv_cols[jn]
            own = part_in.get(jn)
        if own:
            ru = ru.copy()
            for j, load in own.items():
                ru[j] += load
        sh = share_rows[i]
        if rng is None:
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
        else:
            scores = []
            for j in range(M):
                m_v = mu[j] + sh[j]
                r_v = ru[j] + demand * inv[j]
                scores.append(m_v if m_v > r_v else r_v)
            best_j = _pick_tie(scores, rng)
        a, b = (jn, best_j) if incoming else (best_j, jn)
        out = part_out.setdefault(a, {})
        out[b] = part_in.setdefault(b, {})[a] = (
            out.get(b, 0.0) + demand * inv[best_j]
        )
        assignment[i] = best_j
        load = part_machine.get(best_j, 0.0) + sh[best_j]
        part_machine[best_j] = load
        mu[best_j] = committed[best_j] + load

    return assignment
