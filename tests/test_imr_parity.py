"""The scalar IMR agrees bit for bit with a vectorized oracle.

``imr_map_string`` is one scalar routine for both tie rules.  This module
keeps the former NumPy body (``_imr_vectorized`` with its ``_argmin_tie``)
as the oracle: it scores every machine with whole-vector expressions and
breaks random ties with ``rng.choice(candidates)``.  On every state —
empty or partly filled, strings that grow right and left of their seed
application, tie-heavy uniform models, and fleet shards — both must
return the same assignment; with a generator they must also leave it in
the same state after every call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState, AppString, Network, SystemModel
from repro.core.numeric import ABS_TOL, REL_TOL
from repro.fleet import partition_fleet
from repro.heuristics import mwf_order
from repro.heuristics.imr import _pick_tie, imr_map_string
from repro.workload.fleet import FLEET_LARGE, generate_fleet, materialize_model

from conftest import build_string, uniform_network


def _argmin_tie(values: np.ndarray, rng: np.random.Generator | None) -> int:
    """Index of the minimum; ties broken by lowest index or randomly
    among the values within ``isclose`` noise of the minimum."""
    if rng is None:
        return int(np.argmin(values))
    m = float(values.min())
    tol = np.maximum(REL_TOL * np.maximum(np.abs(values), abs(m)), ABS_TOL)
    candidates = np.flatnonzero(values - m <= tol)
    return int(rng.choice(candidates))


def _imr_vectorized(
    state: AllocationState,
    string_id: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """The IMR over whole NumPy score vectors (the oracle)."""
    model = state.model
    s = model.strings[string_id]
    net = model.network
    M = model.n_machines
    n = s.n_apps
    machine_util = state.machine_util
    route_util = state.route_util

    app_share = s.work / s.period  # (n, M)
    transfer_demand = s.output_sizes / s.period if n > 1 else np.empty(0)
    part_machine = np.zeros(M)
    part_route = np.zeros((M, M))
    assignment = np.full(n, -1, dtype=np.int64)

    intensity = s.computational_intensity()
    order_seed = int(np.argmax(intensity))
    cand = machine_util + part_machine + app_share[order_seed]
    j0 = _argmin_tie(cand, rng)
    assignment[order_seed] = j0
    part_machine[j0] += app_share[order_seed, j0]

    left = right = order_seed
    assigned = 1

    def place(i: int, neighbour: int, incoming: bool) -> None:
        nonlocal assigned
        m_util = machine_util + part_machine + app_share[i]
        jn = int(assignment[neighbour])
        if incoming:
            demand = transfer_demand[i - 1]
            r_util = (
                route_util[jn, :]
                + part_route[jn, :]
                + demand * net.inv_bandwidth[jn, :]
            )
        else:
            demand = transfer_demand[i]
            r_util = (
                route_util[:, jn]
                + part_route[:, jn]
                + demand * net.inv_bandwidth[:, jn]
            )
        j = _argmin_tie(np.maximum(m_util, r_util), rng)
        assignment[i] = j
        part_machine[j] += app_share[i, j]
        if incoming:
            part_route[jn, j] += demand * net.inv_bandwidth[jn, j]
        else:
            part_route[j, jn] += demand * net.inv_bandwidth[j, jn]
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


class _CountingRng:
    """Generator proxy recording the ``high`` of every ``integers`` draw."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.highs: list[int] = []

    def integers(self, low: int, high: int) -> np.int64:
        self.highs.append(high)
        return self.rng.integers(low, high)


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
        fast = imr_map_string(state, k)
        vec = _imr_vectorized(state, k, None)
        assert type(fast) is list and vec.dtype == np.int64
        assert all(type(j) is int for j in fast)
        np.testing.assert_array_equal(fast, vec, err_msg=f"string {k}")
        seen |= _growth(model, k)
        state.try_add(k, fast)
    assert 0 < state.n_strings
    return seen


def _assert_random_ties_while_filling(model: SystemModel, seed: int) -> int:
    """Random-tie parity: same assignment and same generator state after
    every call.  Returns how many calls drew from the generator."""
    state = AllocationState(model)
    ours = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    drawing_calls = 0
    for k in range(model.n_strings):
        before = ours.bit_generator.state
        got = imr_map_string(state, k, rng=ours)
        want = _imr_vectorized(state, k, oracle)
        np.testing.assert_array_equal(got, want, err_msg=f"string {k}")
        assert ours.bit_generator.state == oracle.bit_generator.state, k
        drawing_calls += ours.bit_generator.state != before
        state.try_add(k, got)
    assert 0 < state.n_strings
    return drawing_calls


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
            imr_map_string(state, k), _imr_vectorized(state, k, None)
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
        fast = imr_map_string(state, k)
        np.testing.assert_array_equal(fast, _imr_vectorized(state, k, None))
        state.try_add(k, fast)
    assert 0 < state.n_strings < model.n_strings


@pytest.mark.parametrize("M", [2, 3, 6, 12, 32])
def test_random_ties_tie_heavy(M):
    """Uniform strings tie at almost every step; the generator decides."""
    assert _assert_random_ties_while_filling(_tie_model(M), seed=M) > 0


@pytest.mark.parametrize("M", [2, 3, 6, 12, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_ties_random_models(M, seed):
    _assert_random_ties_while_filling(_random_model(M, 40, seed), seed)
    _assert_random_ties_while_filling(
        _random_model(M, 40, seed, (1e6, 1e7)), seed
    )


@pytest.mark.parametrize("M", [2, 3, 6, 12, 32])
def test_single_candidate_steps_draw_nothing(M):
    """Continuous random costs never tie, so no step may draw; on the
    tie-heavy model every draw has at least two candidates."""
    model = _random_model(M, 30, 11)
    state = AllocationState(model)
    rng = _CountingRng(5)
    for k in range(model.n_strings):
        np.testing.assert_array_equal(
            imr_map_string(state, k, rng=rng), imr_map_string(state, k)
        )
        state.try_add(k, imr_map_string(state, k))
    assert rng.highs == []

    tied = _tie_model(M)
    state = AllocationState(tied)
    rng = _CountingRng(5)
    for k in range(tied.n_strings):
        state.try_add(k, imr_map_string(state, k, rng=rng))
    assert rng.highs and min(rng.highs) >= 2


def test_pick_tie_matches_choice():
    """``_pick_tie`` draws what ``rng.choice(candidates)`` draws."""
    scores = [0.5, 0.25, 0.25 + 1e-17, 0.75, 0.25]
    for seed in range(300):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        assert _pick_tie(scores, ours) == _argmin_tie(np.array(scores), theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
    lone = np.random.default_rng(0)
    before = lone.bit_generator.state
    assert _pick_tie([0.3, 0.1, 0.2], lone) == 1
    assert lone.bit_generator.state == before
