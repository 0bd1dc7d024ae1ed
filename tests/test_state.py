"""Unit and property tests for the incremental AllocationState
(repro.core.state) — incremental analysis must match the from-scratch one."""

import numpy as np
import pytest

from repro.core import (
    Allocation,
    AllocationError,
    AllocationState,
    SystemModel,
    analyze,
)
from repro.core.timing import TimingEstimator
from repro.heuristics.imr import imr_map_string
from repro.workload import SCENARIO_1, SCENARIO_2, SCENARIO_3, generate_model

from conftest import build_string, uniform_network


def random_assignment(model, string, rng):
    return rng.integers(0, model.n_machines, size=string.n_apps)


class TestBasics:
    def test_empty_state(self, small_model):
        state = AllocationState(small_model)
        assert state.n_strings == 0
        assert state.total_worth == 0.0
        assert state.slackness() == 1.0

    def test_add_and_query(self, small_model):
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        assert 0 in state
        assert state.total_worth == 100.0
        assert list(state.machines_for(0)) == [0, 1, 2]

    def test_double_add_rejected(self, small_model):
        state = AllocationState(small_model)
        state.try_add(0, [0, 1, 2])
        with pytest.raises(AllocationError):
            state.try_add(0, [0, 0, 0])

    def test_bad_assignment_rejected(self, small_model):
        state = AllocationState(small_model)
        with pytest.raises(AllocationError):
            state.try_add(0, [0, 1])  # wrong length
        with pytest.raises(AllocationError):
            state.try_add(2, [5])  # machine out of range

    def test_as_allocation_round_trip(self, small_model):
        state = AllocationState(small_model)
        state.try_add(0, [0, 1, 2])
        state.try_add(2, [1])
        alloc = state.as_allocation()
        assert alloc == Allocation(small_model, {0: [0, 1, 2], 2: [1]})

    def test_fitness_matches_metrics(self, small_model):
        from repro.core.metrics import evaluate

        state = AllocationState(small_model)
        state.try_add(0, [0, 1, 2])
        state.try_add(3, [2, 0, 1, 2])
        fit_inc = state.fitness()
        fit_full = evaluate(state.as_allocation())
        assert fit_inc.worth == fit_full.worth
        assert fit_inc.slackness == pytest.approx(fit_full.slackness)


class TestRejection:
    def test_stage1_rejection_reported(self):
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=10.0, t=20.0, u=1.0, latency=1e9)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assert not state.try_add(0, [0])
        assert state.last_rejection is not None
        assert state.last_rejection.stage == 1
        assert state.n_strings == 0

    def test_stage2_new_string_rejection(self):
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=5.0, t=6.0, u=0.1, latency=1e9)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assert not state.try_add(0, [0])
        assert state.last_rejection.stage == 2
        assert state.last_rejection.kind == "throughput-comp"

    def test_stage2_existing_string_rejection(self):
        """Adding a tighter string can break an already-mapped one."""
        net = uniform_network(2)
        loose = build_string(0, 1, 2, period=8.5, t=8.0, u=0.5, latency=1e6)
        tight = build_string(1, 1, 2, period=40.0, t=8.0, u=0.5,
                             latency=16.0)
        model = SystemModel(net, [loose, tight])
        state = AllocationState(model)
        assert state.try_add(0, [0])  # loose alone is fine (8 <= 8.5)
        assert not state.try_add(1, [0])  # would push loose to 9 > 8.5
        assert state.last_rejection.kind == "throughput-comp"
        assert "string 0" in state.last_rejection.where
        # state untouched
        assert state.n_strings == 1
        assert analyze(state.as_allocation()).feasible

    def test_latency_rejection_of_existing(self):
        net = uniform_network(2)
        loose = build_string(0, 2, 2, period=20.0, t=4.0, u=1.0,
                             latency=8.9)
        tight = build_string(1, 1, 2, period=10.0, t=4.0, u=1.0,
                             latency=5.0)
        model = SystemModel(net, [loose, tight])
        state = AllocationState(model)
        assert state.try_add(0, [0, 0])
        assert not state.try_add(1, [0])
        assert state.last_rejection.kind in ("latency", "throughput-comp")


class TestRemove:
    def test_remove_restores_empty(self, small_model):
        state = AllocationState(small_model)
        state.try_add(0, [0, 1, 2])
        state.remove(0)
        assert state.n_strings == 0
        assert state.machine_util.sum() == pytest.approx(0.0, abs=1e-12)
        assert state.route_util.sum() == pytest.approx(0.0, abs=1e-12)

    def test_remove_unknown_raises(self, small_model):
        state = AllocationState(small_model)
        with pytest.raises(AllocationError):
            state.remove(0)

    def test_remove_is_inverse_of_add(self, scenario1_small):
        """add A, add B, remove B leaves state equivalent to just A."""
        model = scenario1_small
        rng = np.random.default_rng(5)
        state = AllocationState(model)
        a_assign = random_assignment(model, model.strings[0], rng)
        b_assign = random_assignment(model, model.strings[1], rng)
        assert state.try_add(0, a_assign)
        lat_before = state.estimated_latency(0)
        if state.try_add(1, b_assign):
            state.remove(1)
        assert state.estimated_latency(0) == pytest.approx(lat_before)
        # utilizations match a fresh single-string state
        fresh = AllocationState(model)
        fresh.try_add(0, a_assign)
        np.testing.assert_allclose(state.machine_util, fresh.machine_util)
        np.testing.assert_allclose(state.route_util, fresh.route_util)


class TestIncrementalMatchesFull:
    """The central property: the incremental accept/reject decision and
    the cached latencies agree with the from-scratch analysis."""

    @pytest.mark.parametrize("scenario,seed", [
        (SCENARIO_1, 0), (SCENARIO_1, 1), (SCENARIO_2, 2), (SCENARIO_2, 3),
    ])
    def test_greedy_random_allocation(self, scenario, seed):
        params = scenario.scaled(n_strings=30, n_machines=4)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed + 100)
        state = AllocationState(model)
        accepted = []
        for s in model.strings:
            assign = random_assignment(model, s, rng)
            before = state.as_allocation()
            ok = state.try_add(s.string_id, assign)
            candidate = before.with_string(s.string_id, assign)
            full = analyze(candidate).feasible
            assert ok == full, (
                f"string {s.string_id}: incremental={ok} full={full}"
            )
            if ok:
                accepted.append(s.string_id)
        # final state consistent with full analysis
        final = state.as_allocation()
        report = analyze(final)
        assert report.feasible
        est = TimingEstimator(final).all_timings()
        for k in accepted:
            assert state.estimated_latency(k) == pytest.approx(
                est[k].end_to_end_latency(), rel=1e-9
            )

    @pytest.mark.parametrize("scenario,n_strings,n_machines,seed", [
        (SCENARIO_1, 14, 3, 21),
        (SCENARIO_1, 14, 3, 22),
        # plan-psg's model, and a slice shaped like a fleet-large shard
        (SCENARIO_1, 50, 8, 1),
        (SCENARIO_3, 120, 16, 1009),
    ])
    def test_accepted_states_are_analyze_feasible(
        self, scenario, n_strings, n_machines, seed
    ):
        """Whatever the kernel accepts, the from-scratch analysis
        confirms; whatever it rejects, the analysis rejects too.  Half
        the candidates are IMR placements, so the walk keeps accepting
        on the larger models instead of stalling at the first strings."""
        params = scenario.scaled(n_strings=n_strings, n_machines=n_machines)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed)
        state = AllocationState(model)
        decisions = []
        for sid in range(model.n_strings):
            if rng.random() < 0.5:
                m = imr_map_string(state, sid)
            else:
                m = random_assignment(model, model.strings[sid], rng)
            ok = state.try_add(sid, m)
            decisions.append(ok)
            report = analyze(
                state.as_allocation()
                if ok
                else state.as_allocation().with_string(sid, m)
            )
            assert report.feasible == ok
        assert analyze(state.as_allocation()).feasible
        assert any(decisions) and not all(decisions)

    def test_utilization_accumulators_match(self, scenario1_small):
        from repro.core import machine_utilization, route_utilization

        model = scenario1_small
        rng = np.random.default_rng(77)
        state = AllocationState(model)
        for s in model.strings:
            state.try_add(s.string_id, random_assignment(model, s, rng))
        alloc = state.as_allocation()
        np.testing.assert_allclose(
            state.machine_util, machine_utilization(alloc), atol=1e-12
        )
        np.testing.assert_allclose(
            state.route_util, route_utilization(alloc), atol=1e-12
        )


class TestSnapshotRestore:
    def test_roundtrip_is_exact(self, small_model):
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        assert state.try_add(1, [1, 1])
        snap = state.snapshot()
        assert snap.n_strings == 2
        assert state.try_add(3, [0, 2, 1, 0])
        mutated_fitness = state.fitness()
        state.restore(snap)
        assert set(state.as_allocation().string_ids) == {0, 1}
        assert state.fitness() != mutated_fitness
        reference = AllocationState(small_model)
        reference.try_add(0, [0, 1, 2])
        reference.try_add(1, [1, 1])
        assert np.array_equal(state.machine_util, reference.machine_util)
        assert np.array_equal(state.route_util, reference.route_util)
        assert state.fitness() == reference.fitness()

    def test_snapshot_is_reusable_after_restore(self, small_model):
        """Restoring must not alias: mutating the restored state twice
        from the same snapshot yields independent, identical states."""
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        snap = state.snapshot()
        state.restore(snap)
        assert state.try_add(1, [1, 1])
        other = AllocationState(small_model)
        other.restore(snap)
        assert set(other.as_allocation().string_ids) == {0}
        assert other.try_add(1, [1, 1])
        assert np.array_equal(state.machine_util, other.machine_util)
        assert state.fitness() == other.fitness()

    def test_snapshot_detached(self, small_model):
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        snap = state.snapshot()
        assert state.try_add(2, [1])
        state.restore(snap)
        assert state.mapped_ids == (0,)
        state.restore(snap)  # snapshots stay reusable
        assert state.mapped_ids == (0,)

    def test_restore_clears_rejection_after_error(self, small_model):
        state = AllocationState(small_model)
        snap = state.snapshot()
        with pytest.raises(AllocationError):
            state.try_add(0, [9, 9, 9])
        assert state.try_add(0, [0, 1, 2])
        state.restore(snap)
        assert state.last_rejection is None
        assert state.n_strings == 0

    def test_restore_clears_rejection(self):
        from conftest import build_string, uniform_network

        from repro.core import SystemModel

        # Two 0.9-load single-app strings: the second overloads machine 0.
        strings = [
            build_string(k, 1, 2, period=50.0, t=45.0, u=1.0)
            for k in (0, 1)
        ]
        model = SystemModel(uniform_network(2), strings)
        state = AllocationState(model)
        assert state.try_add(0, [0])
        snap = state.snapshot()
        assert not state.try_add(1, [0])
        assert state.last_rejection is not None
        state.restore(snap)
        assert state.last_rejection is None


class TestBoundaryTolerance:
    """Quantities landing exactly on a bound are accepted (strict >
    comparisons against bound * (1 + tol)); one ulp past the scaled
    bound is rejected."""

    def _one_string_model(self, period, t, u):
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=period, t=t, u=u, latency=1e9)
        return SystemModel(net, [s])

    @staticmethod
    def _verdict(model, tol=1e-9):
        """``(accepted, last_rejection)`` of string 0 -> [0]."""
        state = AllocationState(model, tol=tol)
        ok = state.try_add(0, [0])
        return ok, state.last_rejection

    def test_exact_capacity_accepted(self):
        model = self._one_string_model(period=10.0, t=10.0, u=1.0)
        # util == 1.0 exactly
        assert self._verdict(model, tol=0.0) == (True, None)

    def test_capacity_one_step_over_rejected(self):
        over = np.nextafter(1.0, 2.0) * 10.0
        model = self._one_string_model(period=10.0, t=over, u=1.0)
        ok, rejection = self._verdict(model, tol=0.0)
        assert not ok
        assert rejection.stage == 1

    def test_tolerance_admits_slight_overshoot(self):
        over = 10.0 * (1.0 + 5e-10)  # within the default 1e-9 tol
        model = self._one_string_model(period=10.0, t=over, u=1.0)
        assert self._verdict(model) == (True, None)

    def test_rejection_values_identical(self):
        model = self._one_string_model(period=10.0, t=30.0, u=1.0)
        ok, rejection = self._verdict(model)
        assert not ok
        # the reported values are the exact doubles, not approximations
        assert rejection.value == 3.0
        assert rejection.bound == 1.0


class TestMappedIdsCache:
    def test_cache_invalidated_on_mutation(self, small_model):
        state = AllocationState(small_model)
        assert state.mapped_ids == ()
        assert state.try_add(2, [1])
        assert state.try_add(0, [0, 1, 2])
        assert state.mapped_ids == (0, 2)
        first = state.mapped_ids
        assert state.mapped_ids is first  # cached between mutations
        state.remove(2)
        assert state.mapped_ids == (0,)

    def test_failed_add_keeps_cache_valid(self):
        net = uniform_network(2)
        big = build_string(0, 1, 2, period=10.0, t=20.0, u=1.0)
        ok = build_string(1, 1, 2, period=10.0, t=1.0, u=0.1)
        model = SystemModel(net, [big, ok])
        state = AllocationState(model)
        assert state.try_add(1, [0])
        assert state.mapped_ids == (1,)
        assert not state.try_add(0, [0])
        assert state.mapped_ids == (1,)
