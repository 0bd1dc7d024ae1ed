"""``compute_profile`` against the reference per-string load vectors.

A :class:`~repro.core.profile.StringProfile` holds, per touched machine
and route, the stage-1 load, the largest nominal time and the use count
of one ``(string, assignment)`` pair.  Every downstream consumer
(feasibility kernel, priority keys, fleet solves) assumes those values
equal the from-scratch quantities of :mod:`repro.core.utilization` and
:mod:`repro.core.tightness` to the last bit, and that the dicts iterate
in a fixed order (the kernel's waiting-term sums follow it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState, AppString, SystemModel
from repro.core.exceptions import AllocationError
from repro.core.profile import ProfileCache, compute_profile
from repro.core.tightness import priority_key, relative_tightness
from repro.core.utilization import string_machine_load, string_route_load
from repro.workload import generate_model, get_scenario
from repro.workload.fleet import FLEET_SMOKE, generate_fleet, materialize_model

from conftest import uniform_network


def _assert_matches_reference(model, k, machines):
    """Every profile field equals its from-scratch reference, exactly."""
    s = model.strings[k]
    m = np.asarray(machines, dtype=np.int64)
    prof = compute_profile(model, k, m)
    assert np.array_equal(prof.machines, m)
    assert prof.period == s.period
    assert prof.max_latency == s.max_latency
    assert prof.nominal_path == s.nominal_path_time(m, model.network)
    assert prof.key == priority_key(
        relative_tightness(s, m, model.network), k
    )

    load = string_machine_load(s, m)
    t = s.comp_times[np.arange(s.n_apps), m]
    used = sorted(set(m.tolist()))
    assert prof.m_load == {j: float(load[j]) for j in used}
    assert prof.m_tmax == {j: float(t[m == j].max()) for j in used}
    assert prof.m_count == {j: int((m == j).sum()) for j in used}

    rload = string_route_load(s, m, model.network)
    src, dst = m[:-1], m[1:]
    times = s.output_sizes * model.network.inv_bandwidth[src, dst]
    routes = sorted(
        {(a, b) for a, b in zip(src.tolist(), dst.tolist()) if a != b}
    )
    on = {r: (src == r[0]) & (dst == r[1]) for r in routes}
    assert prof.r_load == {r: float(rload[r]) for r in routes}
    assert prof.r_tmax == {r: float(times[on[r]].max()) for r in routes}
    assert prof.r_count == {r: int(on[r].sum()) for r in routes}


def _mappings(model, string_id, rng):
    """A mix of spread-out, colocated, and random mappings."""
    n = model.strings[string_id].n_apps
    M = model.n_machines
    yield np.arange(n, dtype=np.int64) % M
    yield np.zeros(n, dtype=np.int64)
    for _ in range(4):
        yield rng.integers(0, M, size=n).astype(np.int64)


def _long_string_model(n_apps=40, n_machines=6, seed=0):
    """One string longer than any workload string, random parameters."""
    rng = np.random.default_rng(seed)
    s = AppString(
        string_id=0,
        worth=1.0,
        period=500.0,
        max_latency=1e6,
        comp_times=rng.uniform(0.5, 5.0, size=(n_apps, n_machines)),
        cpu_utils=rng.uniform(0.1, 1.0, size=(n_apps, n_machines)),
        output_sizes=rng.uniform(100.0, 5_000.0, size=n_apps - 1),
    )
    return SystemModel(uniform_network(n_machines), [s])


class TestReferenceLoads:
    def test_paper_scale_model(self):
        model = generate_model(
            get_scenario("1").scaled(n_strings=20, n_machines=8), seed=3
        )
        rng = np.random.default_rng(7)
        for k in range(model.n_strings):
            for m in _mappings(model, k, rng):
                _assert_matches_reference(model, k, m)

    def test_fleet_shard_model(self):
        workload = generate_fleet(FLEET_SMOKE, seed=5)
        model = materialize_model(
            workload, tuple(range(12)), list(range(40))
        )
        rng = np.random.default_rng(11)
        for k in range(model.n_strings):
            for m in _mappings(model, k, rng):
                _assert_matches_reference(model, k, m)

    def test_long_string(self):
        model = _long_string_model()
        assert model.strings[0].n_apps > 32
        rng = np.random.default_rng(5)
        for m in _mappings(model, 0, rng):
            _assert_matches_reference(model, 0, m)

    def test_dict_iteration_order(self):
        # Machines ascending; routes ascending by (j1, j2), i.e. by the
        # flat id j1 * M + j2 — not in first-use order.
        model = _long_string_model(n_apps=6, n_machines=4)
        prof = compute_profile(model, 0, [3, 1, 3, 0, 2, 1])
        assert list(prof.m_load) == [0, 1, 2, 3]
        for d in (prof.m_tmax, prof.m_count):
            assert list(d) == list(prof.m_load)
        assert list(prof.r_load) == [(0, 2), (1, 3), (2, 1), (3, 0), (3, 1)]
        for d in (prof.r_tmax, prof.r_count):
            assert list(d) == list(prof.r_load)

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
            fresh = compute_profile(model, k, m)
            for name in ("key", "nominal_path", "m_load", "m_tmax",
                         "m_count", "r_load", "r_tmax", "r_count"):
                assert getattr(cached, name) == getattr(fresh, name)
        assert cache.stats()["misses"] == model.n_strings

    def test_mapping_normalization(self):
        # Any integer dtype or a python list gives the same profile.
        model = generate_model(
            get_scenario("1").scaled(n_strings=4, n_machines=4), seed=2
        )
        n = model.strings[0].n_apps
        a = compute_profile(model, 0, [0] * n)
        b = compute_profile(model, 0, np.zeros(n, dtype=np.int32))
        assert a.machines.dtype == b.machines.dtype == np.int64
        assert (a.key, a.m_load, a.r_load) == (b.key, b.m_load, b.r_load)


class TestProfileCache:
    def test_memoized_profile_matches_compute(self, small_model):
        cache = ProfileCache()
        machines = [0, 1, 2]
        a = cache.get_or_compute(small_model, 0, machines)
        b = cache.get_or_compute(small_model, 0, machines)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1
        # a list (what the IMR returns) and an array share one entry
        for same in (np.array(machines), np.array(machines, dtype=np.int32)):
            assert cache.get_or_compute(small_model, 0, same) is a
        assert cache.hits == 3 and cache.misses == 1
        assert a.machines.dtype == np.int64
        assert not a.machines.flags.writeable
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
