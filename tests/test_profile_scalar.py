"""Bit-identity of the scalar ``compute_profile`` fast path.

The dispatcher sends small strings (``n_apps <= _SCALAR_MAX_APPS``)
through a dict-accumulating scalar kernel instead of the
``np.unique``/``bincount`` vector kernel.  The two must agree to the
last bit — every downstream consumer (feasibility kernel, priority
keys, fleet solves) assumes profiles are a pure function of
``(model, string, mapping)``, not of which kernel computed them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState
from repro.core.exceptions import AllocationError
from repro.core.profile import (
    _SCALAR_MAX_APPS,
    ProfileCache,
    _profile_scalar,
    _profile_vector,
    compute_profile,
)
from repro.workload import generate_model, get_scenario
from repro.workload.fleet import FLEET_SMOKE, generate_fleet, materialize_model


def _profiles_bit_equal(a, b):
    assert a.key == b.key
    assert a.period == b.period
    assert a.max_latency == b.max_latency
    assert a.nominal_path == b.nominal_path
    assert a.n_machines == b.n_machines
    assert np.array_equal(a.machines, b.machines)
    assert a.res_idx.tobytes() == b.res_idx.tobytes()
    assert a.res_load.tobytes() == b.res_load.tobytes()
    assert a.res_tmax.tobytes() == b.res_tmax.tobytes()
    assert a.res_count.tobytes() == b.res_count.tobytes()


def _mappings(model, string_id, rng):
    """A mix of spread-out, colocated, and random mappings."""
    n = model.strings[string_id].n_apps
    M = model.n_machines
    yield np.arange(n, dtype=np.int64) % M
    yield np.zeros(n, dtype=np.int64)
    for _ in range(4):
        yield rng.integers(0, M, size=n).astype(np.int64)


class TestScalarVectorParity:
    def test_paper_scale_model(self):
        model = generate_model(
            get_scenario("1").scaled(n_strings=20, n_machines=8), seed=3
        )
        rng = np.random.default_rng(7)
        for k in range(model.n_strings):
            for m in _mappings(model, k, rng):
                _profiles_bit_equal(
                    _profile_scalar(model, k, m),
                    _profile_vector(model, k, m),
                )

    def test_fleet_shard_model(self):
        workload = generate_fleet(FLEET_SMOKE, seed=5)
        model = materialize_model(
            workload, tuple(range(12)), list(range(40))
        )
        rng = np.random.default_rng(11)
        for k in range(model.n_strings):
            for m in _mappings(model, k, rng):
                _profiles_bit_equal(
                    _profile_scalar(model, k, m),
                    _profile_vector(model, k, m),
                )

    def test_dispatcher_matches_both_kernels(self):
        model = generate_model(
            get_scenario("1").scaled(n_strings=10, n_machines=6), seed=9
        )
        rng = np.random.default_rng(13)
        for k in range(model.n_strings):
            m = rng.integers(0, 6, size=model.strings[k].n_apps)
            m = m.astype(np.int64)
            via_dispatch = compute_profile(model, k, m)
            expected = (
                _profile_scalar(model, k, m)
                if model.strings[k].n_apps <= _SCALAR_MAX_APPS
                else _profile_vector(model, k, m)
            )
            _profiles_bit_equal(via_dispatch, expected)

    def test_cache_miss_path_agrees_with_compute(self):
        model = generate_model(
            get_scenario("1").scaled(n_strings=8, n_machines=5), seed=21
        )
        cache = ProfileCache()
        rng = np.random.default_rng(17)
        for k in range(model.n_strings):
            m = rng.integers(0, 5, size=model.strings[k].n_apps)
            m = m.astype(np.int64)
            cached = cache.get_or_compute(model, k, m)
            _profiles_bit_equal(cached, compute_profile(model, k, m))
        assert cache.stats()["misses"] == model.n_strings


class TestDispatchThreshold:
    def test_small_strings_take_scalar_path(self):
        assert _SCALAR_MAX_APPS >= 8, (
            "paper workloads (up to ~8 apps per string) should use the "
            "scalar fast path"
        )

    def test_mapping_normalization(self):
        # The dispatcher accepts any integer dtype / python list.
        model = generate_model(
            get_scenario("1").scaled(n_strings=4, n_machines=4), seed=2
        )
        n = model.strings[0].n_apps
        a = compute_profile(model, 0, [0] * n)
        b = compute_profile(model, 0, np.zeros(n, dtype=np.int32))
        _profiles_bit_equal(a, b)


class TestProfileCache:
    def test_memoized_profile_matches_compute(self, small_model):
        cache = ProfileCache()
        machines = [0, 1, 2]
        a = cache.get_or_compute(small_model, 0, machines)
        b = cache.get_or_compute(small_model, 0, machines)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1
        fresh = compute_profile(small_model, 0, machines)
        assert a.m_load == fresh.m_load
        assert a.m_tmax == fresh.m_tmax
        assert a.m_count == fresh.m_count
        assert a.r_load == fresh.r_load
        assert a.r_tmax == fresh.r_tmax
        assert a.r_count == fresh.r_count
        assert a.key == fresh.key
        assert a.nominal_path == fresh.nominal_path

    def test_distinct_assignments_distinct_entries(self, small_model):
        cache = ProfileCache()
        cache.get_or_compute(small_model, 0, [0, 1, 2])
        cache.get_or_compute(small_model, 0, [0, 0, 2])
        assert len(cache) == 2
        assert cache.misses == 2

    def test_lru_eviction(self, small_model):
        cache = ProfileCache(max_entries=2)
        cache.get_or_compute(small_model, 0, [0, 1, 2])
        cache.get_or_compute(small_model, 0, [0, 0, 2])
        cache.get_or_compute(small_model, 0, [0, 1, 2])  # refresh first
        cache.get_or_compute(small_model, 0, [1, 1, 2])  # evicts [0, 0, 2]
        assert cache.evictions == 1
        assert len(cache) == 2
        before = cache.misses
        cache.get_or_compute(small_model, 0, [0, 1, 2])  # still resident
        assert cache.misses == before

    def test_validates_assignment(self, small_model):
        cache = ProfileCache()
        with pytest.raises(AllocationError):
            cache.get_or_compute(small_model, 0, [0, 1])  # wrong length
        with pytest.raises(AllocationError):
            cache.get_or_compute(small_model, 0, [0, 1, 99])  # bad machine

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ProfileCache(max_entries=0)

    def test_state_with_profile_cache_matches_without(self, small_model):
        plain = AllocationState(small_model)
        cached = AllocationState(small_model, profile_cache=ProfileCache())
        for k, machines in ((0, [0, 1, 2]), (1, [1, 1]), (3, [0, 2, 1, 0])):
            assert plain.try_add(k, machines) == cached.try_add(k, machines)
        assert np.array_equal(plain.machine_util, cached.machine_util)
        assert np.array_equal(plain.route_util, cached.route_util)
        assert plain.fitness() == cached.fitness()
