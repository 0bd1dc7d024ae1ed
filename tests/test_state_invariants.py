"""Kernel invariants of ``AllocationState`` under random operation sequences.

Random ``try_add`` / ``remove`` / ``snapshot`` / ``restore`` walks must
keep, after every step:

* each mapped string's interference terms equal to those of a state
  freshly replayed from the current mapping (up to accumulation order:
  ``remove`` subtracts what ``try_add`` added);
* the mapping feasible under the from-scratch ``analyze()``, and every
  ``try_add`` decision equal to ``analyze()``'s on the candidate;
* ``machine_users()`` / ``route_users()`` ascending and equal to the
  strings whose assignment touches the resource;
* a restored state bit-identical to the state its snapshot was taken of;
* the read-only ``machine_util`` / ``route_util`` arrays equal to the
  live Python-float lists the kernel and the IMR read, and
  ``slackness()`` bit-identical to the eq. (7) NumPy formula over them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState, SystemModel, analyze
from repro.fleet import solve_fleet
from repro.heuristics.imr import imr_map_string
from repro.workload import SCENARIO_1, SCENARIO_3, generate_model
from repro.workload.fleet import FLEET_BENCH, generate_fleet, materialize_model

from conftest import build_string, uniform_network


def _terms(state: AllocationState) -> dict[int, tuple]:
    """Every mapped string's ``(H_m, H_r, wait_sum)``, exactly."""
    return {k: state.interference_terms(k) for k in state.mapped_ids}


def _assert_users(state: AllocationState) -> None:
    M = state.model.n_machines
    on_machine: list[set[int]] = [set() for _ in range(M)]
    on_route: dict[tuple[int, int], set[int]] = {}
    for k in state.mapped_ids:
        m = state.machines_for(k).tolist()
        for j in m:
            on_machine[j].add(k)
        for a, b in zip(m, m[1:]):
            if a != b:
                on_route.setdefault((a, b), set()).add(k)
    for j in range(M):
        users = state.machine_users(j).tolist()
        assert users == sorted(on_machine[j])
    for a in range(M):
        for b in range(M):
            users = state.route_users(a, b).tolist()
            assert users == sorted(on_route.get((a, b), set()))


def _numpy_slackness(state: AllocationState) -> float:
    """Eq. (7) the way the kernel computed it over NumPy accumulators."""
    slack = 1.0 - float(state.machine_util.max(initial=0.0))
    M = state.model.n_machines
    off = state.route_util[~np.eye(M, dtype=bool)]
    if off.size:
        slack = min(slack, 1.0 - float(off.max()))
    return slack


def _assert_views(state: AllocationState) -> None:
    """The array views mirror the live lists; slackness is bit-exact."""
    mu, ru = state.machine_util, state.route_util
    M = state.model.n_machines
    assert mu.shape == (M,) and ru.shape == (M, M)
    assert not mu.flags.writeable and not ru.flags.writeable
    assert mu.tolist() == state.machine_loads()
    for j in range(M):
        assert ru[j].tolist() == state.route_row(j)
        assert ru[:, j].tolist() == state.route_col(j)
        assert ru[j, j] == 0.0 and not np.signbit(ru[j, j])
    assert state.slackness().hex() == _numpy_slackness(state).hex()


def _assert_matches_replay(state: AllocationState) -> None:
    fresh = AllocationState(state.model)
    for k in state.mapped_ids:
        assert fresh.try_add(k, state.machines_for(k))
    for k in state.mapped_ids:
        h_m, h_r, ws = state.interference_terms(k)
        f_m, f_r, f_ws = fresh.interference_terms(k)
        assert h_m.keys() == f_m.keys() and h_r.keys() == f_r.keys()
        for j in h_m:
            assert h_m[j] == pytest.approx(f_m[j], rel=1e-9, abs=1e-12)
        for r in h_r:
            assert h_r[r] == pytest.approx(f_r[r], rel=1e-9, abs=1e-12)
        assert ws == pytest.approx(f_ws, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(state.machine_util, fresh.machine_util, atol=1e-12)
    np.testing.assert_allclose(state.route_util, fresh.route_util, atol=1e-12)


@pytest.mark.parametrize(
    "scenario,n_strings,n_machines,seed",
    [
        (SCENARIO_1, 30, 4, 3),
        (SCENARIO_1, 40, 6, 4),
        (SCENARIO_3, 60, 8, 5),
        (SCENARIO_3, 80, 12, 6),
    ],
)
def test_random_operation_sequences(scenario, n_strings, n_machines, seed):
    model = generate_model(
        scenario.scaled(n_strings=n_strings, n_machines=n_machines), seed=seed
    )
    rng = np.random.default_rng(seed)
    state = AllocationState(model)
    snaps: list[tuple[object, dict, tuple, float]] = []
    counts = {"add": 0, "accept": 0, "remove": 0, "restore": 0}
    for _ in range(250):
        op = rng.random()
        unmapped = [k for k in range(model.n_strings) if k not in state]
        if op < 0.55 and unmapped:
            k = int(rng.choice(unmapped))
            if rng.random() < 0.5:
                m = imr_map_string(state, k)
            else:
                m = rng.integers(0, model.n_machines, size=model.strings[k].n_apps)
            expected = analyze(state.as_allocation().with_string(k, m)).feasible
            ok = state.try_add(k, m)
            assert ok == expected
            counts["add"] += 1
            counts["accept"] += ok
        elif op < 0.8 and state.n_strings:
            state.remove(int(rng.choice(state.mapped_ids)))
            counts["remove"] += 1
        elif op < 0.9:
            snaps.append(
                (state.snapshot(), _terms(state), state.mapped_ids, state.total_worth)
            )
        elif snaps:
            snap, terms, ids, worth = snaps[int(rng.integers(len(snaps)))]
            state.restore(snap)
            assert state.mapped_ids == ids
            assert state.total_worth == worth
            assert _terms(state) == terms
            counts["restore"] += 1
        _assert_users(state)
        _assert_views(state)
        _assert_matches_replay(state)
        assert analyze(state.as_allocation()).feasible
    assert counts["accept"] and counts["add"] > counts["accept"]
    assert counts["remove"] and counts["restore"]


def _dust_model() -> SystemModel:
    """Two machines; three 2-app strings whose route loads are 0.1, 0.2
    and 0.3 of the 0->1 route, so adding and removing them leaves
    rounding dust instead of zeros."""
    strings = [
        build_string(k, 2, 2, period=10.0, t=1.0, u=0.05, out=out, latency=1e6)
        for k, out in enumerate([1e5, 2e5, 3e5])
    ]
    return SystemModel(uniform_network(2, bandwidth=1e5), strings)


def test_off_diagonal_dust_after_remove():
    state = AllocationState(_dust_model())
    for k in range(3):
        assert state.try_add(k, [0, 1])
    _assert_views(state)
    state.remove(0)
    state.remove(2)
    _assert_views(state)
    state.remove(1)
    _assert_views(state)
    route = state.route_util[0, 1]
    assert route != 0.0 and abs(route) < 1e-15
    assert state.machine_util.max() < 1e-15
    # re-adding over the dust, then taking a snapshot of it
    assert state.try_add(1, [0, 1])
    snap = state.snapshot()
    state.remove(1)
    state.restore(snap)
    _assert_views(state)
    assert state.route_col(1)[0] == state.route_row(0)[1]


def test_single_machine():
    model = SystemModel(
        uniform_network(1),
        [build_string(k, 3, 1, period=10.0, u=0.5) for k in range(4)],
    )
    state = AllocationState(model)
    _assert_views(state)
    assert state.slackness() == 1.0
    for k in range(4):
        state.try_add(k, [0, 0, 0])
        _assert_views(state)
    assert 0 < state.n_strings < 4
    state.remove(state.mapped_ids[0])
    _assert_views(state)


def test_fleet_bench_monolithic_state():
    """The K = 1 fleet-bench solve (100 machines, 789 strings), replayed
    into one state: the views and slackness stay exact at fleet scale."""
    workload = generate_fleet(FLEET_BENCH, seed=42)
    result = solve_fleet(workload, 1, seed=42, n_workers=1)
    machine_ids = list(range(workload.n_machines))
    placed = sorted(result.placements)
    model = materialize_model(workload, machine_ids, placed)
    state = AllocationState(model)
    for local, gid in enumerate(placed):
        assert state.try_add(local, list(result.placements[gid][1]))
    assert state.n_strings == result.n_placed
    _assert_views(state)
