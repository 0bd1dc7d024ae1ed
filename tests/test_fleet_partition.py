"""Tests for the deterministic affinity partitioner (repro.fleet.partition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.fleet import partition_fleet
from repro.fleet.partition import _TIEBREAK_TAG
from repro.workload.fleet import FLEET_SCENARIOS, FLEET_SMOKE, generate_fleet


@pytest.fixture(scope="module")
def workload():
    return generate_fleet(FLEET_SMOKE, seed=11)


class TestCoverage:
    def test_every_machine_in_exactly_one_shard(self, workload):
        part = partition_fleet(workload, 3)
        seen: list[int] = []
        for shard in part.shards:
            seen.extend(shard.machine_ids)
        assert sorted(seen) == list(range(workload.n_machines))

    def test_every_string_in_exactly_one_shard(self, workload):
        part = partition_fleet(workload, 3)
        seen: list[int] = []
        for shard in part.shards:
            seen.extend(shard.string_ids)
        assert sorted(seen) == list(range(workload.n_strings))

    def test_zones_are_indivisible(self, workload):
        part = partition_fleet(workload, 3)
        for shard in part.shards:
            for zone in shard.zones:
                members = workload.zone_members(zone)
                assert set(members.tolist()) <= set(shard.machine_ids)

    def test_shard_lists_sorted_ascending(self, workload):
        part = partition_fleet(workload, 4)
        for shard in part.shards:
            assert list(shard.machine_ids) == sorted(shard.machine_ids)
            assert list(shard.string_ids) == sorted(shard.string_ids)

    def test_index_maps_agree_with_shards(self, workload):
        part = partition_fleet(workload, 3)
        for shard in part.shards:
            for z in shard.zones:
                assert part.shard_of_zone[z] == shard.index
            for gid in shard.string_ids:
                assert part.shard_of_string[gid] == shard.index
        for j in range(workload.n_machines):
            assert part.shard_of_machine(workload, j) in range(3)


class TestBalance:
    def test_machine_counts_balanced(self, workload):
        # Greedy balanced zone assignment: with 6 equal zones over 3
        # shards, machine counts split exactly evenly.
        part = partition_fleet(workload, 3)
        counts = [s.n_machines for s in part.shards]
        assert max(counts) - min(counts) <= max(
            int((workload.zone_of == z).sum())
            for z in range(FLEET_SMOKE.n_zones)
        )
        assert sum(counts) == workload.n_machines

    def test_k_equals_one_is_whole_fleet(self, workload):
        part = partition_fleet(workload, 1)
        assert part.n_shards == 1
        assert part.shards[0].n_machines == workload.n_machines
        assert part.shards[0].n_strings == workload.n_strings


class TestDeterminism:
    def test_same_seed_same_partition(self, workload):
        a = partition_fleet(workload, 3, seed=5)
        b = partition_fleet(workload, 3, seed=5)
        assert a == b

    def test_seed_defaults_to_workload_seed(self, workload):
        assert partition_fleet(workload, 3) == partition_fleet(
            workload, 3, seed=workload.seed
        )

    def test_tie_break_seed_only_moves_cross_zone_strings(self, workload):
        a = partition_fleet(workload, 3, seed=1)
        b = partition_fleet(workload, 3, seed=2)
        # The structural zone split never depends on the seed.
        assert a.shard_of_zone == b.shard_of_zone
        for s in workload.strings:
            same_shard = (
                a.shard_of_zone[s.home_zone] == a.shard_of_zone[s.peer_zone]
            )
            if same_shard:
                assert (
                    a.shard_of_string[s.string_id]
                    == b.shard_of_string[s.string_id]
                )
            # Every string still lands on one of its two route shards.
            for part in (a, b):
                assert part.shard_of_string[s.string_id] in {
                    part.shard_of_zone[s.home_zone],
                    part.shard_of_zone[s.peer_zone],
                }

    def test_different_seeds_differ_somewhere(self, workload):
        # With 96 strings and 25% cross-zone rate, at least one coin
        # should flip between two seeds.
        a = partition_fleet(workload, 3, seed=1)
        b = partition_fleet(workload, 3, seed=2)
        assert a.shard_of_string != b.shard_of_string


class TestValidation:
    def test_k_bounds(self, workload):
        with pytest.raises(ModelError, match="n_shards"):
            partition_fleet(workload, 0)
        with pytest.raises(ModelError, match="n_shards"):
            partition_fleet(workload, FLEET_SMOKE.n_zones + 1)

    def test_k_equals_n_zones_allowed(self, workload):
        part = partition_fleet(workload, FLEET_SMOKE.n_zones)
        assert part.n_shards == FLEET_SMOKE.n_zones
        assert all(len(s.zones) == 1 for s in part.shards)

    def test_negative_seed_rejected(self, workload):
        with pytest.raises(ModelError, match="seed"):
            partition_fleet(workload, 2, seed=-1)

    def test_zone_member_ids_are_global(self, workload):
        part = partition_fleet(workload, 2)
        all_ids = np.concatenate(
            [np.asarray(s.machine_ids) for s in part.shards]
        )
        assert all_ids.min() >= 0
        assert all_ids.max() < workload.n_machines


def _reference_partition(workload, n_shards, seed):
    """The partitioner as a plain loop: one ``Generator`` per cross-shard
    string for its coin, and a scan over every string per shard."""
    scn = workload.scenario
    zone_sizes = [
        int((workload.zone_of == z).sum()) for z in range(scn.n_zones)
    ]
    order = sorted(range(scn.n_zones), key=lambda z: (-zone_sizes[z], z))
    shard_machines = [0] * n_shards
    shard_of_zone = [0] * scn.n_zones
    for z in order:
        target = min(range(n_shards), key=lambda i: (shard_machines[i], i))
        shard_of_zone[z] = target
        shard_machines[target] += zone_sizes[z]
    shard_of_string = [0] * workload.n_strings
    for s in workload.strings:
        home = shard_of_zone[s.home_zone]
        peer = shard_of_zone[s.peer_zone]
        if home == peer:
            shard_of_string[s.string_id] = home
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _TIEBREAK_TAG, s.string_id))
            )
            shard_of_string[s.string_id] = (
                home if float(rng.uniform()) < 0.5 else peer
            )
    shards = []
    for i in range(n_shards):
        zones = tuple(z for z in range(scn.n_zones) if shard_of_zone[z] == i)
        machine_ids = tuple(
            int(j)
            for j in np.flatnonzero(
                np.isin(workload.zone_of, np.asarray(zones))
            )
        )
        string_ids = tuple(
            k for k in range(workload.n_strings) if shard_of_string[k] == i
        )
        shards.append((i, machine_ids, string_ids, zones))
    return tuple(shard_of_zone), tuple(shard_of_string), shards


@pytest.mark.parametrize("name", sorted(FLEET_SCENARIOS))
@pytest.mark.parametrize("seed", [1, 1009])
def test_matches_reference_loop(name, seed):
    """The batched coins and numpy grouping reproduce the loop exactly,
    on every fleet scenario and shard count from 1 to 32."""
    scn = FLEET_SCENARIOS[name]
    workload = generate_fleet(scn, seed)
    for k in sorted({1, 2, 3, min(8, scn.n_zones), min(32, scn.n_zones)}):
        part = partition_fleet(workload, k, seed=seed + k)
        zones, strings, shards = _reference_partition(workload, k, seed + k)
        assert part.shard_of_zone == zones
        assert part.shard_of_string == strings
        assert all(type(x) is int for x in part.shard_of_string)
        assert [
            (s.index, s.machine_ids, s.string_ids, s.zones) for s in part.shards
        ] == shards
        for s in part.shards:
            assert all(type(x) is int for x in s.machine_ids + s.string_ids)
