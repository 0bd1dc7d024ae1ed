"""Parallel shard solving and global composition.

Each shard's standalone :class:`~repro.core.model.SystemModel` (per-shard
state cost ``O((M/K)²)``) is built *inside the task that solves it* and
dropped when the task returns.  Solves fan out over
:class:`~repro.parallel.supervisor.SupervisedPool`; the compact
:class:`~repro.workload.fleet.FleetWorkload` reaches each worker once,
through a :class:`~repro.parallel.SharedModelGroup` and the pool
initializer (inherited under ``fork``, pickled once per worker under
``spawn``), and each task carries only its token and its
:class:`~repro.fleet.partition.Shard`.  The parent holds no dense shard
model on the pooled path and at most one at a time inline.  Results are
collected *by shard index*.  Every per-shard solve is a pure function of
``(shard model, solver, seed, shard index)``, and the shard model one of
the shard's ids — never of worker identity or scheduling — so the
composed result is bit-reproducible across runs, worker counts and
start methods.  With ``n_workers=1`` (or a single shard), shards are
built and solved inline one after another.

After solving, :func:`repro.fleet.rebalance.rebalance` migrates boundary
strings between shards; :func:`compose` then assembles the global
:class:`FleetResult` and :func:`validate_result` enforces conservation:
every string placed-or-rejected exactly once, placements within shard
machine sets, and total worth equal to the sum of shard worths.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.exceptions import ModelError
from ..core.feasibility import analyze
from ..core.profile import ProfileCache
from ..heuristics import allocate_sequence, mwf_order, seeded_psg
from ..parallel import (
    ChaosPolicy,
    SharedModelGroup,
    SupervisedPool,
    SupervisorConfig,
    Task,
    get_shared,
)
from ..workload.fleet import FleetWorkload, materialize_model
from .partition import FleetPartition, Shard, partition_fleet

__all__ = [
    "FleetResult",
    "SHARD_SOLVERS",
    "ShardSolution",
    "compose",
    "solve_fleet",
    "solve_shard",
    "validate_result",
]

#: Supported per-shard solvers.  ``skip-ahead`` is the fleet default:
#: greedy MWF order with rejected-instead-of-stop semantics, fully
#: deterministic and wall-clock independent (unlike the cascade).
SHARD_SOLVERS = ("skip-ahead", "psg")

#: Seed-stream domain separator for per-shard solver randomness.
_SOLVER_TAG = 0x50A6


@dataclass(frozen=True)
class ShardSolution:
    """Outcome of one shard solve, in *global* ids."""

    shard_index: int
    #: Global string id -> global machine id per application.
    placements: dict[int, tuple[int, ...]]
    #: Global ids of this shard's strings left unallocated.
    rejected: tuple[int, ...]
    worth: float
    slackness: float
    runtime_seconds: float
    solver: str


@dataclass(frozen=True)
class FleetResult:
    """Composed global outcome of a sharded fleet solve."""

    n_shards: int
    solver: str
    seed: int
    #: Global string id -> (shard index, global machine id per app).
    placements: dict[int, tuple[int, tuple[int, ...]]]
    #: Global ids of strings no shard could place, ascending.
    rejected: tuple[int, ...]
    total_worth: float
    min_slackness: float
    shard_solutions: tuple[ShardSolution, ...]
    runtime_seconds: float
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def n_placed(self) -> int:
        return len(self.placements)

    def signature(self) -> str:
        """Content hash of the composed allocation (bit-reproducibility).

        Covers every placement (string, shard, machines) and every
        rejection in canonical order — two runs compose identically iff
        their signatures match.
        """
        h = hashlib.sha256()
        for k in sorted(self.placements):
            shard, machines = self.placements[k]
            h.update(f"p:{k}:{shard}:{','.join(map(str, machines))};".encode())
        for k in self.rejected:
            h.update(f"r:{k};".encode())
        return h.hexdigest()


def _solve_shard_payload(
    workload: FleetWorkload, shard: Shard, solver: str, seed: int
) -> dict[str, Any]:
    """Materialize one shard, solve it, and drop its model on return.

    Returns a plain picklable payload in shard-local ids; the parent
    converts to global ids.  ``runtime`` includes the materialization.
    """
    start = time.perf_counter()
    model = materialize_model(workload, shard.machine_ids, shard.string_ids)

    if solver == "skip-ahead":
        # Each string is tried once, so a profile memo would never hit.
        outcome = allocate_sequence(
            model, mwf_order(model), stop_on_failure=False
        )
        state = outcome.state
        allocation = state.as_allocation()
        fitness = state.fitness()
    elif solver == "psg":
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _SOLVER_TAG, shard.index))
        )
        result = seeded_psg(model, rng=rng, profile_cache=ProfileCache())
        allocation = result.allocation
        fitness = result.fitness
    else:
        raise ModelError(
            f"unknown shard solver {solver!r}; choose from {SHARD_SOLVERS}"
        )

    mapped = {
        int(k): tuple(int(j) for j in allocation.machines_for(k))
        for k in allocation
    }
    rejected = tuple(
        k for k in range(model.n_strings) if k not in mapped
    )
    return {
        "shard": shard.index,
        "mapped": mapped,
        "rejected": rejected,
        "worth": float(fitness.worth),
        "slackness": float(fitness.slackness),
        "runtime": time.perf_counter() - start,
    }


def _solve_shard_task(
    token: str, shard: Shard, solver: str, seed: int
) -> dict[str, Any]:
    """Pool task (also the in-parent replay): solve one shard of the
    workload shared under ``token``."""
    return _solve_shard_payload(get_shared(token), shard, solver, seed)


def _to_global(
    payload: Mapping[str, Any], shard: Shard, solver: str
) -> ShardSolution:
    """Convert a worker payload's local ids to global ids."""
    placements = {
        shard.string_ids[local]: tuple(
            shard.machine_ids[p] for p in machines
        )
        for local, machines in payload["mapped"].items()
    }
    rejected = tuple(
        sorted(shard.string_ids[local] for local in payload["rejected"])
    )
    return ShardSolution(
        shard_index=shard.index,
        placements=placements,
        rejected=rejected,
        worth=float(payload["worth"]),
        slackness=float(payload["slackness"]),
        runtime_seconds=float(payload["runtime"]),
        solver=solver,
    )


def solve_shard(
    workload: FleetWorkload,
    shard: Shard,
    *,
    solver: str = "skip-ahead",
    seed: int | None = None,
) -> ShardSolution:
    """Solve a single shard inline (no pool) and return global-id results."""
    payload = _solve_shard_payload(
        workload, shard, solver, workload.seed if seed is None else seed
    )
    return _to_global(payload, shard, solver)


def _solve_all_shards(
    workload: FleetWorkload,
    partition: FleetPartition,
    solver: str,
    seed: int,
    n_workers: int,
    chaos: ChaosPolicy | None,
    pool_stats: dict[str, Any],
) -> list[ShardSolution]:
    """Fan shard solves over the supervised pool (or stream them inline).

    Either way each shard's dense model is built inside the task that
    solves it and dropped when the task returns, so the parent never
    holds more than one shard model at a time (and none when pooled).
    """
    shards = partition.shards
    if n_workers <= 1 or len(shards) == 1:
        return [
            solve_shard(workload, s, solver=solver, seed=seed) for s in shards
        ]

    with SharedModelGroup([workload]) as shared, SupervisedPool(
        max_workers=n_workers,
        initializer=shared.initializer,
        initargs=shared.initargs,
        config=SupervisorConfig(),
        chaos=chaos,
    ) as pool:
        (token,) = shared.tokens
        outcomes = pool.run(
            [Task(_solve_shard_task, (token, s, solver, seed)) for s in shards]
        )
        pool_stats.update(pool.stats.as_dict())

    solutions: list[ShardSolution] = []
    for shard, outcome in zip(shards, outcomes):
        if not outcome.ok:  # pragma: no cover - supervisor exhausts retries
            raise ModelError(
                f"shard {shard.index} solve failed: {outcome.error!r}"
            ) from outcome.error
        solutions.append(_to_global(outcome.value, shard, solver))
    return solutions


def compose(
    partition: FleetPartition,
    solutions: list[ShardSolution],
    *,
    solver: str,
    seed: int,
    runtime_seconds: float,
    stats: dict[str, Any] | None = None,
) -> FleetResult:
    """Assemble the global result from per-shard solutions."""
    placements: dict[int, tuple[int, tuple[int, ...]]] = {}
    rejected: list[int] = []
    for sol in solutions:
        for gid, machines in sol.placements.items():
            if gid in placements:
                raise ModelError(
                    f"string {gid} placed by two shards "
                    f"({placements[gid][0]} and {sol.shard_index})"
                )
            placements[gid] = (sol.shard_index, machines)
        rejected.extend(sol.rejected)
    return FleetResult(
        n_shards=partition.n_shards,
        solver=solver,
        seed=seed,
        placements=placements,
        rejected=tuple(sorted(rejected)),
        total_worth=float(sum(sol.worth for sol in solutions)),
        min_slackness=float(
            min((sol.slackness for sol in solutions), default=1.0)
        ),
        shard_solutions=tuple(
            sorted(solutions, key=lambda s: s.shard_index)
        ),
        runtime_seconds=runtime_seconds,
        stats=dict(stats or {}),
    )


def validate_result(
    workload: FleetWorkload,
    partition: FleetPartition,
    result: FleetResult,
    *,
    deep: bool = False,
) -> None:
    """Enforce the composition's conservation invariants.

    * every fleet string is placed or rejected **exactly once**;
    * every placement uses only machines of the shard that placed it,
      with one machine per application;
    * total worth equals the sum of shard worths, and both equal the
      worth of the placed strings.

    ``deep=True`` additionally re-materializes every shard's model and
    re-runs the full two-stage feasibility analysis on its allocation —
    ``O(K · (M/K)²)``, used by tests and the chaos soak.
    """
    placed = set(result.placements)
    rejected = set(result.rejected)
    if placed & rejected:
        raise ModelError(
            f"strings both placed and rejected: {sorted(placed & rejected)[:5]}"
        )
    if len(result.rejected) != len(rejected):
        raise ModelError("duplicate ids in the rejected list")
    everything = placed | rejected
    if everything != set(range(workload.n_strings)):
        missing = sorted(set(range(workload.n_strings)) - everything)[:5]
        extra = sorted(everything - set(range(workload.n_strings)))[:5]
        raise ModelError(
            f"composition does not cover the fleet exactly once "
            f"(missing={missing}, extra={extra})"
        )

    shard_machines = {
        s.index: frozenset(s.machine_ids) for s in partition.shards
    }
    worth_of_placed = 0.0
    for gid, (shard_index, machines) in result.placements.items():
        spec = workload.strings[gid]
        if len(machines) != spec.n_apps:
            raise ModelError(
                f"string {gid}: {len(machines)} machines for "
                f"{spec.n_apps} applications"
            )
        if not set(machines) <= shard_machines[shard_index]:
            raise ModelError(
                f"string {gid} placed on machines outside shard "
                f"{shard_index}"
            )
        worth_of_placed += spec.worth

    shard_worth_sum = sum(s.worth for s in result.shard_solutions)
    for total, label in (
        (shard_worth_sum, "sum of shard worths"),
        (worth_of_placed, "worth of placed strings"),
    ):
        if abs(total - result.total_worth) > 1e-9 * max(1.0, result.total_worth):
            raise ModelError(
                f"worth not conserved: total_worth={result.total_worth}, "
                f"{label}={total}"
            )

    if deep:
        for sol in result.shard_solutions:
            _deep_check_shard(workload, partition.shards[sol.shard_index], sol)


def _deep_check_shard(
    workload: FleetWorkload, shard: Shard, sol: ShardSolution
) -> None:
    """Re-materialize one shard and feasibility-check its allocation."""
    from ..core.allocation import Allocation

    gids = sorted(sol.placements)
    model = materialize_model(workload, shard.machine_ids, gids)
    machine_pos = {g: p for p, g in enumerate(shard.machine_ids)}
    mapping = {
        local: np.array(
            [machine_pos[j] for j in sol.placements[gid]], dtype=np.int64
        )
        for local, gid in enumerate(gids)
    }
    report = analyze(Allocation(model, mapping))
    if not report.feasible:
        raise ModelError(
            f"shard {sol.shard_index} allocation infeasible on "
            f"re-materialized model: {report.violations[:3]}"
        )


def solve_fleet(
    workload: FleetWorkload,
    n_shards: int,
    *,
    solver: str = "skip-ahead",
    seed: int | None = None,
    n_workers: int | None = None,
    rebalance_rounds: int = 2,
    rebalance_targets: int = 2,
    rebalance_migrants: int = 64,
    chaos: ChaosPolicy | None = None,
    validate: bool = True,
) -> FleetResult:
    """Partition, solve, rebalance, and compose one fleet allocation.

    Parameters
    ----------
    workload:
        The compact fleet description (:func:`repro.workload.fleet.generate_fleet`).
    n_shards:
        Shard count K (``1 <= K <= n_zones``).  ``K=1`` is the
        monolithic baseline: one shard holding the whole fleet, solved
        inline.
    solver:
        Per-shard solver, one of :data:`SHARD_SOLVERS`.
    seed:
        Drives partition tie-breaks and per-shard solver randomness;
        defaults to the workload seed.
    n_workers:
        Pool width; defaults to ``min(n_shards, 4)``.  ``1`` solves all
        shards inline (identical results — collection is by shard
        index either way).
    rebalance_rounds:
        Max cross-shard migration rounds (0 disables rebalancing; the
        loop also stops early on a round with no accepted migration).
    rebalance_targets / rebalance_migrants:
        Per-migrant candidate-shard cap and migrant-pool cap forwarded
        to :func:`repro.fleet.rebalance.rebalance` — together they bound
        the rebalancing cost independently of how saturated the fleet
        is.
    chaos:
        Optional fault injector threaded into the shard pool (chaos
        soak); supervision retries/replays guarantee no shard result is
        lost or double-counted.
    validate:
        Run :func:`validate_result` (shallow) before returning.
    """
    start = time.perf_counter()
    if seed is None:
        seed = workload.seed
    if solver not in SHARD_SOLVERS:
        raise ModelError(
            f"unknown shard solver {solver!r}; choose from {SHARD_SOLVERS}"
        )
    # Partitioning validates n_shards, so its message comes first rather
    # than a complaint about the n_workers default derived from it.
    partition = partition_fleet(workload, n_shards, seed=seed)
    if n_workers is None:
        n_workers = min(n_shards, 4)
    if n_workers < 1:
        raise ModelError(f"n_workers must be >= 1, got {n_workers}")
    for name, value in (
        ("rebalance_rounds", rebalance_rounds),
        ("rebalance_targets", rebalance_targets),
        ("rebalance_migrants", rebalance_migrants),
    ):
        if value < 0:
            raise ModelError(f"{name} must be >= 0, got {value}")

    pool_stats: dict[str, Any] = {}
    solutions = _solve_all_shards(
        workload, partition, solver, seed, n_workers, chaos, pool_stats
    )

    stats: dict[str, Any] = {"pool": pool_stats} if pool_stats else {}
    if rebalance_rounds > 0:
        from .rebalance import rebalance

        solutions, reb_stats = rebalance(
            workload,
            partition,
            solutions,
            max_rounds=rebalance_rounds,
            max_targets=rebalance_targets,
            max_migrants=rebalance_migrants,
        )
        stats["rebalance"] = reb_stats.as_dict()

    result = compose(
        partition,
        solutions,
        solver=solver,
        seed=seed,
        runtime_seconds=time.perf_counter() - start,
        stats=stats,
    )
    if validate:
        validate_result(workload, partition, result)
    return result
