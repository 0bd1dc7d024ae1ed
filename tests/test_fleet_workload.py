"""Tests for the fleet-scale workload generator (repro.workload.fleet)."""

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.workload import (
    FLEET_BENCH,
    FLEET_LARGE,
    FLEET_SMOKE,
    FleetScenario,
    MONOLITHIC_LIMIT,
    generate_fleet,
    get_fleet_scenario,
    materialize_model,
    materialize_string,
)


@pytest.fixture(scope="module")
def smoke():
    return generate_fleet(FLEET_SMOKE, seed=42)


class TestGeneration:
    def test_same_seed_bit_identical(self, smoke):
        other = generate_fleet(FLEET_SMOKE, seed=42)
        assert np.array_equal(smoke.zone_of, other.zone_of)
        for a, b in zip(smoke.strings, other.strings):
            assert a.n_apps == b.n_apps
            assert a.worth == b.worth
            assert a.period == b.period
            assert a.max_latency == b.max_latency
            assert np.array_equal(a.t_base, b.t_base)
            assert np.array_equal(a.u_base, b.u_base)
            assert np.array_equal(a.output_sizes, b.output_sizes)
            assert (a.home_zone, a.peer_zone) == (b.home_zone, b.peer_zone)

    def test_different_seed_differs(self, smoke):
        other = generate_fleet(FLEET_SMOKE, seed=43)
        assert not all(
            np.array_equal(a.t_base, b.t_base)
            for a, b in zip(smoke.strings, other.strings)
        )

    def test_zones_partition_machines(self, smoke):
        sizes = [len(smoke.zone_members(z)) for z in range(FLEET_SMOKE.n_zones)]
        assert sum(sizes) == FLEET_SMOKE.n_machines
        assert max(sizes) - min(sizes) <= 1

    def test_string_fields_within_ranges(self, smoke):
        p = FLEET_SMOKE.base
        for s in smoke.strings:
            assert p.apps_per_string[0] <= s.n_apps <= p.apps_per_string[1]
            assert s.worth in p.worth_choices
            assert s.t_base.shape == (s.n_apps,)
            assert s.output_sizes.shape == (s.n_apps - 1,)
            assert (s.t_base >= p.comp_time_range[0]).all()
            assert (s.t_base <= p.comp_time_range[1]).all()
            assert 0 <= s.home_zone < FLEET_SMOKE.n_zones
            assert 0 <= s.peer_zone < FLEET_SMOKE.n_zones
            assert s.period > 0 and s.max_latency > 0

    def test_cross_zone_rate_zero_means_no_cross_strings(self):
        w = generate_fleet(FLEET_SMOKE.scaled(cross_zone_rate=0.0), seed=1)
        assert all(s.home_zone == s.peer_zone for s in w.strings)

    def test_invalid_seed_rejected(self):
        with pytest.raises(ModelError):
            generate_fleet(FLEET_SMOKE, seed=-1)
        with pytest.raises(ModelError):
            generate_fleet(FLEET_SMOKE, seed=2**63)
        # Non-integral seeds used to truncate silently to seed 1's fleet.
        for seed in (1.5, 1.0, True, np.bool_(True), np.float64(1.0), "1"):
            with pytest.raises(ModelError, match="integer"):
                generate_fleet(FLEET_SMOKE, seed=seed)
        assert generate_fleet(FLEET_SMOKE, seed=np.int64(3)).seed == 3

    def test_large_fleet_generates_compactly(self):
        scn = FLEET_LARGE.scaled(n_strings=2000)
        w = generate_fleet(scn, seed=7)
        assert w.n_machines == 1000
        assert w.n_strings == 2000
        # The description holds no dense machine-squared state: per-string
        # storage is O(n_apps) and the only machine-indexed array is the
        # zone map.
        assert w.zone_of.shape == (1000,)
        for s in w.strings[:50]:
            assert s.t_base.shape == (s.n_apps,)


class TestMaterialization:
    def test_subset_independence(self, smoke):
        """A cell depends only on global ids, never on the subset chosen."""
        full = materialize_model(
            smoke, np.arange(smoke.n_machines), range(smoke.n_strings)
        )
        sub = materialize_model(smoke, [3, 17, 9], [5, 40])
        s5 = full.strings[5]
        assert np.array_equal(s5.comp_times[:, 17], sub.strings[0].comp_times[:, 1])
        assert np.array_equal(s5.cpu_utils[:, 9], sub.strings[0].cpu_utils[:, 2])
        assert full.network.bandwidth[3, 17] == sub.network.bandwidth[0, 1]
        assert full.network.bandwidth[17, 3] == sub.network.bandwidth[1, 0]
        s40 = full.strings[40]
        assert np.array_equal(s40.comp_times[:, 3], sub.strings[1].comp_times[:, 0])

    def test_strings_renumbered_consecutively(self, smoke):
        m = materialize_model(smoke, [0, 1, 2, 3], [10, 30, 20])
        assert [s.string_id for s in m.strings] == [0, 1, 2]
        assert m.strings[0].worth == smoke.strings[10].worth
        assert m.strings[1].period == smoke.strings[30].period

    def test_qos_bounds_machine_independent(self, smoke):
        """Period/latency come from the compact description, not a subset."""
        a = materialize_string(smoke, 7, [0, 1], local_id=0)
        b = materialize_string(smoke, 7, [20, 21, 22], local_id=0)
        assert a.period == b.period
        assert a.max_latency == b.max_latency

    def test_intra_zone_links_faster_on_average(self, smoke):
        full = materialize_model(
            smoke, np.arange(smoke.n_machines), range(1)
        )
        zones = smoke.zone_of
        bw = full.network.bandwidth
        off = ~np.eye(smoke.n_machines, dtype=bool)
        same = (zones[:, None] == zones[None, :]) & off
        cross = ~(zones[:, None] == zones[None, :])
        assert bw[same].mean() > bw[cross].mean()

    def test_zero_heterogeneity_gives_uniform_rows(self):
        w = generate_fleet(FLEET_SMOKE.scaled(heterogeneity=0.0), seed=3)
        s = materialize_string(w, 0, [0, 5, 11])
        assert np.allclose(s.comp_times, s.comp_times[:, :1])
        assert np.array_equal(s.comp_times[:, 0], w.strings[0].t_base)

    def test_monolithic_guard(self, smoke):
        big = FLEET_LARGE.scaled(n_strings=1)
        w = generate_fleet(big, seed=1)
        ids = np.arange(MONOLITHIC_LIMIT + 1)
        with pytest.raises(ModelError, match="MONOLITHIC_LIMIT"):
            materialize_model(w, ids, [0])

    def test_bad_machine_ids_rejected(self, smoke):
        with pytest.raises(ModelError, match="distinct"):
            materialize_model(smoke, [1, 1, 2], [0])
        with pytest.raises(ModelError, match="out of range"):
            materialize_model(smoke, [0, 99], [0])
        with pytest.raises(ModelError, match="non-empty"):
            materialize_model(smoke, [], [0])


class TestScenarios:
    def test_lookup(self):
        assert get_fleet_scenario("fleet-bench") is FLEET_BENCH
        with pytest.raises(ModelError, match="unknown fleet scenario"):
            get_fleet_scenario("nope")

    def test_validation(self):
        with pytest.raises(ModelError):
            FLEET_SMOKE.scaled(n_zones=0)
        with pytest.raises(ModelError):
            FLEET_SMOKE.scaled(n_zones=FLEET_SMOKE.n_machines + 1)
        with pytest.raises(ModelError):
            FLEET_SMOKE.scaled(cross_zone_rate=1.5)
        with pytest.raises(ModelError):
            FLEET_SMOKE.scaled(inter_zone_factor=0.0)
        with pytest.raises(ModelError):
            FLEET_SMOKE.scaled(heterogeneity=1.0)

    def test_scaled_returns_new_instance(self):
        before = FLEET_BENCH.n_strings
        scn = FLEET_BENCH.scaled(n_strings=10)
        assert scn.n_strings == 10
        assert FLEET_BENCH.n_strings == before  # original untouched
        assert isinstance(scn, FleetScenario)
