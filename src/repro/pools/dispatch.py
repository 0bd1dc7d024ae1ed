"""Pool-level allocation: dispatchers and the pooled IMR.

Allocation over a :class:`~repro.pools.model.PooledSystem` happens in
two stages, mirroring the intended ARMS architecture:

1. the **global mapper** assigns each application to a *pool* — the
   pooled IMR works exactly like the paper's, with pool-aggregate
   utilization (total committed CPU share over total pool capacity)
   standing in for machine utilization;
2. each pool's **dispatcher** picks the concrete machine inside the
   pool.  :func:`least_utilized_dispatch` implements the natural local
   policy: the machine whose utilization (with the candidate included)
   is lowest, using the application's *machine-specific* nominal times
   — so heterogeneity inside a pool is exploited by the dispatcher even
   though the global mapper ignored it.

With singleton pools both stages collapse into the paper's IMR machine
choice, which the test suite asserts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.state import AllocationState
from .model import PooledSystem

__all__ = [
    "pool_utilization",
    "least_utilized_dispatch",
    "pooled_map_string",
    "allocate_pooled",
    "PooledOutcome",
]


def pool_utilization(
    system: PooledSystem, machine_util: np.ndarray
) -> np.ndarray:
    """Aggregate utilization per pool: committed share / pool capacity."""
    out = np.empty(system.n_pools)
    for p, pool in enumerate(system.pools):
        members = np.asarray(pool.machines)
        out[p] = float(machine_util[members].sum()) / pool.size
    return out


def least_utilized_dispatch(
    system: PooledSystem,
    state: AllocationState,
    part_machine: np.ndarray,
    pool_index: int,
    string_id: int,
    app_index: int,
) -> int:
    """Dispatcher: cheapest machine of the pool for this application.

    Minimizes the machine's utilization *including* the candidate's
    machine-specific share; ties break to the lowest machine index.
    """
    pool = system.pools[pool_index]
    s = system.model.strings[string_id]
    best_j = -1
    best_util = np.inf
    committed = state.machine_loads()
    for j in pool.machines:
        share = s.work[app_index, j] / s.period
        util = float(committed[j] + part_machine[j] + share)
        if util < best_util - 1e-15:
            best_util = util
            best_j = j
    return best_j


def pooled_map_string(
    system: PooledSystem,
    state: AllocationState,
    string_id: int,
) -> np.ndarray:
    """Map one string: pooled IMR at the top, dispatcher inside pools.

    Follows the IMR's traversal (most intensive application first, then
    growth toward the next most intensive one through its neighbours),
    scoring candidates by pool-aggregate utilization and the route
    utilization between the *dispatched* machines.
    """
    model = system.model
    s = model.strings[string_id]
    net = model.network
    n = s.n_apps
    M = model.n_machines

    part_machine = np.zeros(M)
    part_route = np.zeros((M, M))
    assignment = np.full(n, -1, dtype=np.int64)
    intensity = s.computational_intensity()
    transfer_demand = s.output_sizes / s.period if n > 1 else np.empty(0)

    def pool_scores_with(app: int) -> np.ndarray:
        """Pool utilization if ``app`` joined each pool (dispatched)."""
        scores = np.empty(system.n_pools)
        base = state.machine_util + part_machine
        for p, pool in enumerate(system.pools):
            members = np.asarray(pool.machines)
            j = least_utilized_dispatch(
                system, state, part_machine, p, string_id, app
            )
            share = s.work[app, j] / s.period
            scores[p] = (float(base[members].sum()) + share) / pool.size
        return scores

    def commit(app: int, pool_index: int) -> int:
        j = least_utilized_dispatch(
            system, state, part_machine, pool_index, string_id, app
        )
        assignment[app] = j
        part_machine[j] += s.work[app, j] / s.period
        return j

    seed_app = int(np.argmax(intensity))
    commit(seed_app, int(np.argmin(pool_scores_with(seed_app))))
    left = right = seed_app
    assigned = 1

    def place(i: int, neighbour: int, incoming: bool) -> None:
        nonlocal assigned
        pool_util_scores = pool_scores_with(i)
        jn = int(assignment[neighbour])
        route_scores = np.empty(system.n_pools)
        dispatched = np.empty(system.n_pools, dtype=np.int64)
        for p in range(system.n_pools):
            j = least_utilized_dispatch(
                system, state, part_machine, p, string_id, i
            )
            dispatched[p] = j
            if incoming:
                demand = transfer_demand[i - 1]
                route_scores[p] = (
                    state.route_row(jn)[j]
                    + part_route[jn, j]
                    + demand * net.inv_bandwidth[jn, j]
                )
            else:
                demand = transfer_demand[i]
                route_scores[p] = (
                    state.route_row(j)[jn]
                    + part_route[j, jn]
                    + demand * net.inv_bandwidth[j, jn]
                )
        score = np.maximum(pool_util_scores, route_scores)
        p = int(np.argmin(score))
        j = int(dispatched[p])
        assignment[i] = j
        part_machine[j] += s.work[i, j] / s.period
        if incoming:
            part_route[jn, j] += transfer_demand[i - 1] * net.inv_bandwidth[jn, j]
        else:
            part_route[j, jn] += transfer_demand[i] * net.inv_bandwidth[j, jn]
        assigned += 1

    while assigned < n:
        masked = np.where(assignment < 0, intensity, -np.inf)
        target = int(np.argmax(masked))
        while target > right:
            right += 1
            place(right, right - 1, incoming=True)
        while target < left:
            left -= 1
            place(left, left + 1, incoming=False)
    return assignment


class PooledOutcome:
    """Result of pooled sequential allocation."""

    __slots__ = ("state", "mapped_ids", "failed_id")

    def __init__(self, state, mapped_ids, failed_id):
        self.state = state
        self.mapped_ids = mapped_ids
        self.failed_id = failed_id

    @property
    def complete(self) -> bool:
        return self.failed_id is None


def allocate_pooled(
    system: PooledSystem, order: Sequence[int] | None = None
) -> PooledOutcome:
    """Allocate strings pool-first until the first feasibility failure.

    ``order`` defaults to worth descending (pooled MWF).  The resulting
    machine-level mapping passes the paper's two-stage analysis (the
    dispatcher fixes concrete machines before each `try_add`).
    """
    model = system.model
    if order is None:
        order = sorted(
            range(model.n_strings),
            key=lambda k: (-model.strings[k].worth, k),
        )
    state = AllocationState(model)
    mapped: list[int] = []
    failed: int | None = None
    for k in order:
        assignment = pooled_map_string(system, state, k)
        if state.try_add(k, assignment):
            mapped.append(k)
        else:
            failed = k
            break
    return PooledOutcome(state, tuple(mapped), failed)
