"""Sharded fleet-scale solving (ROADMAP north-star scale).

Splits a fleet workload into K shards by transfer affinity
(:mod:`repro.fleet.partition`), solves each shard independently over the
supervised process pool, each worker building its own shard models
from the compact workload (:mod:`repro.fleet.solver`), then reconciles shard boundaries by
migrating strings between shards (:mod:`repro.fleet.rebalance`) and
composes a conservation-checked global result.  Per-shard state cost
stays ``O((M/K)²)`` against the monolithic ``O(M²)`` — see
``docs/fleet.md``.
"""

from .partition import FleetPartition, Shard, partition_fleet
from .rebalance import RebalanceStats, rebalance
from .solver import (
    FleetResult,
    ShardSolution,
    solve_fleet,
    solve_shard,
)

__all__ = [
    "FleetPartition",
    "FleetResult",
    "RebalanceStats",
    "Shard",
    "ShardSolution",
    "partition_fleet",
    "rebalance",
    "solve_fleet",
    "solve_shard",
]
