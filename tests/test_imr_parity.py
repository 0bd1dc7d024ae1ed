"""The scalar IMR (``_imr_fast``) and the vectorized body agree bit for bit.

``imr_map_string`` runs ``_imr_fast`` when no generator is given and the
vectorized body otherwise.  Driven with ``rng=None`` the vectorized body
breaks ties by lowest index, so both must return the same assignment on
every state: empty or partly filled, strings that grow right and left of
their seed application, tie-heavy uniform models, and fleet shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState, AppString, Network, SystemModel
from repro.fleet import partition_fleet
from repro.heuristics import mwf_order
from repro.heuristics.imr import _imr_fast, _imr_vectorized
from repro.workload.fleet import FLEET_LARGE, generate_fleet, materialize_model

from conftest import build_string, uniform_network


def _random_model(
    M: int, n_strings: int, seed: int, out: tuple[float, float] = (1e3, 1e5)
) -> SystemModel:
    """Heterogeneous strings of 1–10 apps on a random M-machine network;
    ``out`` bounds the output sizes (large ones make routes bind)."""
    rng = np.random.default_rng(seed)
    bw = rng.uniform(1e5, 1e6, size=(M, M))
    strings = []
    for k in range(n_strings):
        n = int(rng.integers(1, 11))
        strings.append(
            AppString(
                k,
                float(rng.choice([1, 10, 100])),
                float(rng.uniform(20.0, 60.0)),
                1e6,
                rng.uniform(1.0, 10.0, size=(n, M)),
                rng.uniform(0.1, 1.0, size=(n, M)),
                rng.uniform(*out, size=n - 1),
            )
        )
    return SystemModel(Network(bw), strings)


def _tie_model(M: int) -> SystemModel:
    """Identical strings on a uniform network: every step has ties."""
    strings = [
        build_string(k, n, M, period=50.0, t=2.0, u=0.5, out=5e4, latency=1e6)
        for k, n in enumerate([1, 2, 3, 5, 8, 10] * 3)
    ]
    return SystemModel(uniform_network(M, bandwidth=1e6), strings)


def _growth(model: SystemModel, k: int) -> set[str]:
    """Directions the IMR grows string ``k`` in from its seed app."""
    seed = int(np.argmax(model.strings[k].computational_intensity()))
    n = model.strings[k].n_apps
    return ({"right"} if seed < n - 1 else set()) | (
        {"left"} if seed > 0 else set()
    )


def _assert_parity_while_filling(model: SystemModel) -> set[str]:
    """Compare both paths on every string, committing each placement the
    kernel accepts so later strings see a partly filled state."""
    state = AllocationState(model)
    seen: set[str] = set()
    for k in range(model.n_strings):
        fast = _imr_fast(state, k)
        vec = _imr_vectorized(state, k, None)
        assert fast.dtype == vec.dtype == np.int64
        np.testing.assert_array_equal(fast, vec, err_msg=f"string {k}")
        seen |= _growth(model, k)
        state.try_add(k, fast)
    assert 0 < state.n_strings
    return seen


@pytest.mark.parametrize("M", [2, 6, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_models(M, seed):
    seen = _assert_parity_while_filling(_random_model(M, 40, seed))
    assert seen == {"left", "right"}


@pytest.mark.parametrize("M", [2, 6, 32])
@pytest.mark.parametrize("seed", [1, 2])
def test_network_bound_models(M, seed):
    """Transfers load routes more than apps load machines, so a string's
    own earlier transfers on a route steer its later choices (on these
    seeds, in both growth directions)."""
    seen = _assert_parity_while_filling(_random_model(M, 40, seed, (1e6, 1e7)))
    assert seen == {"left", "right"}


@pytest.mark.parametrize("M", [2, 6, 32])
def test_tie_heavy_models(M):
    _assert_parity_while_filling(_tie_model(M))


@pytest.mark.parametrize("M", [2, 6, 32])
def test_empty_state_every_string(M):
    model = _random_model(M, 30, 7)
    state = AllocationState(model)
    for k in range(model.n_strings):
        np.testing.assert_array_equal(
            _imr_fast(state, k), _imr_vectorized(state, k, None)
        )


@pytest.fixture(scope="module")
def large_partition():
    workload = generate_fleet(FLEET_LARGE, seed=1)
    return workload, partition_fleet(workload, 32, seed=1)


@pytest.mark.parametrize("shard_index", [0, 17, 31])
def test_fleet_large_shards(large_partition, shard_index):
    """Fleet-large shards (M ≈ 32) in skip-ahead order, the fleet solver's
    own walk over every string of the shard."""
    workload, partition = large_partition
    shard = partition.shards[shard_index]
    model = materialize_model(workload, shard.machine_ids, shard.string_ids)
    state = AllocationState(model)
    for k in mwf_order(model):
        fast = _imr_fast(state, k)
        np.testing.assert_array_equal(fast, _imr_vectorized(state, k, None))
        state.try_add(k, fast)
    assert 0 < state.n_strings < model.n_strings
