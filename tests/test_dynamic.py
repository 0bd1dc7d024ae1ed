"""Unit tests for the dynamic remapping subsystem (repro.dynamic)."""

import numpy as np
import pytest

from repro.core import Allocation, SystemModel, analyze
from repro.dynamic import (
    RemapPolicy,
    RepairPolicy,
    ShedPolicy,
    carry_forward,
    hotspot_surge,
    random_walk,
    scale_workload,
    simulate_drift,
    uniform_ramp,
)
from repro.heuristics import most_worth_first
from repro.workload import SCENARIO_3, generate_model

from conftest import build_string, uniform_network


@pytest.fixture(scope="module")
def drift_model():
    return generate_model(
        SCENARIO_3.scaled(n_strings=8, n_machines=4), seed=6
    )


@pytest.fixture(scope="module")
def drift_initial(drift_model):
    return most_worth_first(drift_model)


class TestScaleWorkload:
    def test_per_string_factors(self, small_model):
        factors = np.array([2.0, 1.0, 1.0, 1.5])
        scaled = scale_workload(small_model, factors)
        np.testing.assert_allclose(
            scaled.strings[0].comp_times,
            small_model.strings[0].comp_times * 2.0,
        )
        np.testing.assert_allclose(
            scaled.strings[1].comp_times, small_model.strings[1].comp_times
        )
        np.testing.assert_allclose(
            scaled.strings[3].output_sizes,
            small_model.strings[3].output_sizes * 1.5,
        )

    def test_wrong_shape(self, small_model):
        with pytest.raises(ValueError):
            scale_workload(small_model, np.ones(3))

    def test_nonpositive_rejected(self, small_model):
        with pytest.raises(ValueError):
            scale_workload(small_model, np.array([1.0, 0.0, 1.0, 1.0]))


class TestTrajectories:
    def test_uniform_ramp_shape_and_endpoints(self):
        t = uniform_ramp(5, 10, peak_delta=0.8)
        assert t.shape == (10, 5)
        np.testing.assert_allclose(t[0], 1.0)
        np.testing.assert_allclose(t[-1], 1.8)
        assert np.all(np.diff(t, axis=0) >= 0)

    def test_uniform_ramp_validation(self):
        with pytest.raises(ValueError):
            uniform_ramp(5, 0, 0.5)
        with pytest.raises(ValueError):
            uniform_ramp(5, 10, -0.1)

    def test_hotspot_only_affects_hot_strings(self):
        t = hotspot_surge(6, 10, hot_ids=[1, 4], peak_delta=2.0, onset=3)
        np.testing.assert_allclose(t[:3], 1.0)
        np.testing.assert_allclose(t[3:, [1, 4]], 3.0)
        cold = [0, 2, 3, 5]
        np.testing.assert_allclose(t[:, cold], 1.0)

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            hotspot_surge(4, 10, [5], 1.0)
        with pytest.raises(ValueError):
            hotspot_surge(4, 10, [0], 1.0, onset=10)

    def test_random_walk_reproducible(self):
        a = random_walk(4, 12, sigma=0.2, rng=5)
        b = random_walk(4, 12, sigma=0.2, rng=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (12, 4)
        np.testing.assert_allclose(a[0], 1.0)
        assert np.all(a >= 0.1)

    def test_random_walk_zero_sigma_constant(self):
        t = random_walk(3, 5, sigma=0.0, rng=0)
        np.testing.assert_allclose(t, 1.0)


class TestCarryForward:
    def test_keeps_feasible_placements(self, drift_model, drift_initial):
        state, shed = carry_forward(drift_model, drift_initial.allocation)
        assert shed == []
        assert set(state.mapped_ids) == set(drift_initial.allocation)

    def test_sheds_under_heavy_surge(self, drift_model, drift_initial):
        surged = scale_workload(
            drift_model, np.full(drift_model.n_strings, 20.0)
        )
        state, shed = carry_forward(surged, drift_initial.allocation)
        assert shed  # something must give at 20x workload
        assert analyze(state.as_allocation()).feasible

    def test_worth_preference(self):
        """Under pressure, the high-worth string keeps its slot."""
        net = uniform_network(2)
        strings = [
            build_string(0, 1, 2, period=10.0, t=3.0, u=1.0, worth=1,
                         latency=1e6),
            build_string(1, 1, 2, period=10.0, t=3.0, u=1.0, worth=100,
                         latency=1e6),
        ]
        model = SystemModel(net, strings)
        both = Allocation(model, {0: [0], 1: [0]})
        surged = scale_workload(model, np.array([2.5, 2.5]))
        state, shed = carry_forward(surged, Allocation(
            surged, {0: [0], 1: [0]}
        ))
        assert 1 in state
        assert shed == [0]


class TestPolicies:
    def _surged(self, model, factor):
        return scale_workload(model, np.full(model.n_strings, factor))

    def test_shed_never_moves(self, drift_model, drift_initial):
        surged = self._surged(drift_model, 5.0)
        resp = ShedPolicy().respond(surged, drift_initial.allocation)
        assert resp.moved == ()
        for k in resp.allocation:
            np.testing.assert_array_equal(
                resp.allocation.machines_for(k),
                drift_initial.allocation.machines_for(k),
            )

    def test_repair_at_least_shed_worth(self, drift_model, drift_initial):
        surged = self._surged(drift_model, 5.0)
        shed = ShedPolicy().respond(surged, drift_initial.allocation)
        repair = RepairPolicy().respond(surged, drift_initial.allocation)
        assert (
            repair.allocation.total_worth()
            >= shed.allocation.total_worth()
        )

    def test_remap_produces_feasible(self, drift_model, drift_initial):
        surged = self._surged(drift_model, 5.0)
        resp = RemapPolicy("mwf").respond(surged, drift_initial.allocation)
        # re-anchor onto surged model for analysis
        alloc = Allocation(
            surged,
            {k: resp.allocation.machines_for(k) for k in resp.allocation},
        )
        assert analyze(alloc).feasible

    def test_policy_names(self):
        assert ShedPolicy().name == "shed"
        assert RepairPolicy().name == "repair"
        assert RemapPolicy("tf").name == "remap-tf"


class TestSimulateDrift:
    def test_no_drift_no_interventions(self, drift_model, drift_initial):
        traj = np.ones((5, drift_model.n_strings))
        run = simulate_drift(drift_model, drift_initial, traj, ShedPolicy())
        assert run.n_interventions == 0
        assert run.worth_retention() == pytest.approx(1.0)
        assert run.first_intervention_step() is None

    def test_heavy_ramp_triggers_interventions(
        self, drift_model, drift_initial
    ):
        traj = uniform_ramp(drift_model.n_strings, 10, peak_delta=6.0)
        run = simulate_drift(drift_model, drift_initial, traj, ShedPolicy())
        assert run.n_interventions > 0
        assert run.total_shed > 0
        assert run.worth_retention() < 1.0

    def test_step_records_complete(self, drift_model, drift_initial):
        traj = uniform_ramp(drift_model.n_strings, 7, peak_delta=2.0)
        run = simulate_drift(drift_model, drift_initial, traj, ShedPolicy())
        assert len(run.steps) == 7
        assert [s.step for s in run.steps] == list(range(7))
        assert all(0 <= s.slackness <= 1 for s in run.steps)

    def test_repair_dominates_shed_from_shared_state(
        self, drift_model, drift_initial
    ):
        """From the *same* previous allocation and drifted model, the
        repair response never yields less worth than the shed response.
        (Across whole trajectories the histories diverge and per-step
        dominance is not an invariant.)"""
        traj = uniform_ramp(drift_model.n_strings, 8, peak_delta=4.0)
        allocation = drift_initial.allocation
        for factors in traj:
            drifted = scale_workload(drift_model, factors)
            shed_resp = ShedPolicy().respond(drifted, allocation)
            repair_resp = RepairPolicy().respond(drifted, allocation)
            assert (
                repair_resp.allocation.total_worth()
                >= shed_resp.allocation.total_worth() - 1e-9
            )
            # follow the shed history (deterministic reference)
            allocation = shed_resp.allocation

    def test_every_policy_retains_part_of_the_worth(self):
        model = generate_model(
            SCENARIO_3.scaled(n_strings=10, n_machines=5), seed=4
        )
        initial = most_worth_first(model)
        traj = uniform_ramp(model.n_strings, 12, peak_delta=3.0)
        runs = {
            policy.name: simulate_drift(model, initial, traj, policy)
            for policy in (ShedPolicy(), RepairPolicy(), RemapPolicy("mwf"))
        }
        for run in runs.values():
            assert 0.0 < run.worth_retention() <= 1.0 + 1e-9
        assert runs["shed"].total_moved == 0

    def test_trajectory_shape_validated(self, drift_model, drift_initial):
        with pytest.raises(ValueError):
            simulate_drift(
                drift_model, drift_initial, np.ones((5, 3)), ShedPolicy()
            )

    def test_summary_text(self, drift_model, drift_initial):
        traj = np.ones((3, drift_model.n_strings))
        run = simulate_drift(drift_model, drift_initial, traj, ShedPolicy())
        assert "retention" in run.summary()


class TestDriftRunEdgeCases:
    def test_empty_initial_worth_retention(self, drift_model):
        from repro.core import Allocation
        from repro.dynamic import DriftRun

        run = DriftRun(policy_name="x", initial_worth=0.0)
        assert run.worth_retention() == 1.0

    def test_empty_allocation_trajectory(self, drift_model):
        alloc = Allocation.empty(drift_model)
        traj = uniform_ramp(drift_model.n_strings, 4, peak_delta=5.0)
        run = simulate_drift(drift_model, alloc, traj, ShedPolicy())
        assert run.n_interventions == 0
        assert all(s.worth == 0.0 for s in run.steps)
