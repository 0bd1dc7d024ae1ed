"""Shard strings built per ``n_apps`` group equal the lazy per-string path.

``materialize_model`` builds each group's tables and IMR constants in one
broadcast and hands them to ``AppString._attach``.  Every value must be
the one a validated string computes lazily on its own: the tables
(``tobytes``), the eq. 8–9 averages and intensity (``tobytes``), and
``imr_lists()`` (``float.hex`` per entry, the order as ints).
"""

from __future__ import annotations

import pytest

from repro.fleet import partition_fleet
from repro.workload.fleet import (
    FLEET_BENCH,
    FLEET_LARGE,
    FLEET_SMOKE,
    generate_fleet,
    materialize_model,
    materialize_string,
)


def _hex_rows(rows):
    return [[x.hex() for x in row] for row in rows]


def _assert_shard_matches_lazy(workload, shard) -> None:
    model = materialize_model(workload, shard.machine_ids, shard.string_ids)
    assert model.n_strings == len(shard.string_ids)
    for local, (built, gid) in enumerate(zip(model.strings, shard.string_ids)):
        lazy = materialize_string(
            workload, gid, shard.machine_ids, local_id=local
        )
        assert built.string_id == lazy.string_id == local
        for attr in ("worth", "period", "max_latency"):
            assert getattr(built, attr).hex() == getattr(lazy, attr).hex()
        for name in ("comp_times", "cpu_utils", "output_sizes", "work",
                     "avg_comp_times", "avg_cpu_utils"):
            a, b = getattr(built, name), getattr(lazy, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), (gid, name)
            assert not a.flags.writeable, name
        assert (
            built.computational_intensity().tobytes()
            == lazy.computational_intensity().tobytes()
        )
        (b_share, b_demand, b_order) = built.imr_lists()
        (l_share, l_demand, l_order) = lazy.imr_lists()
        assert _hex_rows(b_share) == _hex_rows(l_share), gid
        assert [x.hex() for x in b_demand] == [x.hex() for x in l_demand]
        assert b_order == l_order
        assert all(type(j) is int for j in b_order)


@pytest.mark.parametrize("seed", [1, 1009])
def test_fleet_smoke_every_shard(seed):
    workload = generate_fleet(FLEET_SMOKE, seed)
    for shard in partition_fleet(workload, 3, seed=seed).shards:
        _assert_shard_matches_lazy(workload, shard)


def test_fleet_bench_every_shard():
    workload = generate_fleet(FLEET_BENCH, 42)
    for shard in partition_fleet(workload, 8, seed=42).shards:
        _assert_shard_matches_lazy(workload, shard)


@pytest.mark.parametrize("seed", [1, 1009])
def test_fleet_large_shards(seed):
    workload = generate_fleet(FLEET_LARGE, seed)
    shards = partition_fleet(workload, 32, seed=seed).shards
    for index in (0, 13, 31):
        _assert_shard_matches_lazy(workload, shards[index])


def test_monolithic_chunks_keep_string_order():
    """More strings than one batch chunk: local ids follow the given
    order across chunk boundaries and within every group."""
    workload = generate_fleet(FLEET_BENCH, 7)
    machines = list(range(0, 100, 9))
    gids = list(range(1999, 1999 - 1100, -1))
    model = materialize_model(workload, machines, gids)
    for local in (0, 1, 1023, 1024, 1099):
        lazy = materialize_string(workload, gids[local], machines, local_id=local)
        built = model.strings[local]
        assert built.string_id == local
        assert built.comp_times.tobytes() == lazy.comp_times.tobytes()
        assert built.imr_lists()[2] == lazy.imr_lists()[2]
