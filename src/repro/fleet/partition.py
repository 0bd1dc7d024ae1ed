"""Deterministic affinity partitioning of a fleet into K shards.

Zones are the unit of machine locality (intra-zone links are faster —
see :mod:`repro.workload.fleet`), so the partitioner works zone-first:

1. **Zones → shards** by greedy balanced assignment: zones in
   descending machine-count order (ties by zone id) each go to the
   currently smallest shard (ties by shard index).  Purely structural —
   no randomness — so a given ``(workload, n_shards)`` always yields
   the same machine split.
2. **Strings → shards** by transfer affinity: a string lands with its
   route peers — the shard holding its home zone.  When a cross-zone
   string's home and peer zones fall into *different* shards, a seeded
   coin picks between the two candidates: the first ``uniform()`` of
   the string's own stream ``default_rng(SeedSequence((seed,
   _TIEBREAK_TAG, string_id)))``, drawn for every such string at once
   (:mod:`repro.workload._pcg64_batch`).  So the split is reproducible:
   same seed ⇒ same shards, regardless of iteration order or platform.

Every machine and every string lands in exactly one shard; shard
machine/string id lists are sorted ascending so downstream
materialization is order-canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ModelError
from ..workload._pcg64_batch import Streams, seed_states
from ..workload.fleet import FleetWorkload

__all__ = ["FleetPartition", "Shard", "partition_fleet"]

#: Domain separator for the tie-break seed stream (disjoint from the
#: workload-generation tags in :mod:`repro.workload.fleet`).
_TIEBREAK_TAG = 0x5A4D


@dataclass(frozen=True)
class Shard:
    """One shard: a machine subset plus the strings assigned to it."""

    index: int
    #: Global machine ids, ascending.
    machine_ids: tuple[int, ...]
    #: Global string ids, ascending.
    string_ids: tuple[int, ...]
    #: Zones whose machines this shard holds, ascending.
    zones: tuple[int, ...]

    @property
    def n_machines(self) -> int:
        return len(self.machine_ids)

    @property
    def n_strings(self) -> int:
        return len(self.string_ids)


@dataclass(frozen=True)
class FleetPartition:
    """A complete K-way split of one fleet workload."""

    n_shards: int
    shards: tuple[Shard, ...]
    #: Zone index -> shard index.
    shard_of_zone: tuple[int, ...]
    #: Global string id -> shard index.
    shard_of_string: tuple[int, ...]

    def shard_of_machine(self, workload: FleetWorkload, machine_id: int) -> int:
        """Shard index holding a global machine id."""
        return self.shard_of_zone[int(workload.zone_of[machine_id])]


def partition_fleet(
    workload: FleetWorkload,
    n_shards: int,
    *,
    seed: int | None = None,
) -> FleetPartition:
    """Split a fleet into ``n_shards`` affinity shards, deterministically.

    ``seed`` drives only the cross-shard tie-break coins and defaults to
    the workload's own seed, so a ``(workload, n_shards)`` pair is fully
    reproducible with no extra state.  Requires
    ``1 <= n_shards <= n_zones`` (zones are indivisible).
    """
    scn = workload.scenario
    if not (1 <= n_shards <= scn.n_zones):
        raise ModelError(
            f"n_shards must satisfy 1 <= n_shards <= n_zones="
            f"{scn.n_zones}, got {n_shards}"
        )
    if seed is None:
        seed = workload.seed
    if seed < 0:
        raise ModelError(f"partition seed must be >= 0, got {seed}")

    # -- zones -> shards: greedy balance on machine counts ------------
    zone_sizes = np.bincount(workload.zone_of, minlength=scn.n_zones).tolist()
    order = sorted(range(scn.n_zones), key=lambda z: (-zone_sizes[z], z))
    shard_machines = [0] * n_shards
    shard_of_zone = [0] * scn.n_zones
    for z in order:
        target = min(range(n_shards), key=lambda i: (shard_machines[i], i))
        shard_of_zone[z] = target
        shard_machines[target] += zone_sizes[z]

    # -- strings -> shards: home-zone affinity with seeded tie-breaks -
    zone_shard = np.asarray(shard_of_zone, dtype=np.int64)
    n = workload.n_strings
    home = zone_shard[
        np.fromiter((s.home_zone for s in workload.strings), np.int64, n)
    ]
    peer = zone_shard[
        np.fromiter((s.peer_zone for s in workload.strings), np.int64, n)
    ]
    shard_of_string = home.copy()
    split = np.flatnonzero(home != peer)
    if split.size:
        coin = Streams(
            *seed_states((seed, _TIEBREAK_TAG), split), width=1
        ).doubles(1)[:, 0]
        shard_of_string[split] = np.where(coin < 0.5, home[split], peer[split])

    machine_shard = zone_shard[workload.zone_of]
    by_shard = np.argsort(shard_of_string, kind="stable")
    bounds = np.cumsum(np.bincount(shard_of_string, minlength=n_shards))
    shards = []
    for i in range(n_shards):
        lo = int(bounds[i - 1]) if i else 0
        shards.append(
            Shard(
                index=i,
                machine_ids=tuple(np.flatnonzero(machine_shard == i).tolist()),
                string_ids=tuple(by_shard[lo : int(bounds[i])].tolist()),
                zones=tuple(
                    z for z in range(scn.n_zones) if shard_of_zone[z] == i
                ),
            )
        )

    return FleetPartition(
        n_shards=n_shards,
        shards=tuple(shards),
        shard_of_zone=tuple(shard_of_zone),
        shard_of_string=tuple(shard_of_string.tolist()),
    )
