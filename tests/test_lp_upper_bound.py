"""Unit tests for the LP upper bound (repro.lp.upper_bound)."""

import numpy as np
import pytest

from repro.core import SystemModel
from repro.heuristics import most_worth_first, tightest_first
from repro.lp import upper_bound
from repro.workload import SCENARIO_1, SCENARIO_3, generate_model

from conftest import build_string, uniform_network


class TestHandComputedBounds:
    def test_single_string_fits_fully(self):
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=10.0, t=4.0, u=1.0, worth=10,
                         latency=100.0)
        model = SystemModel(net, [s])
        ub = upper_bound(model, objective="partial")
        assert ub.value == pytest.approx(10.0)
        assert ub.string_fractions[0] == pytest.approx(1.0)

    def test_capacity_limits_fraction(self):
        """One app needing 2x a machine's capacity on each of two
        machines maps to fraction 1.0 split across machines (0.5 each
        saturates both)."""
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=10.0, t=20.0, u=1.0, worth=10,
                         latency=1e9)
        model = SystemModel(net, [s])
        ub = upper_bound(model, objective="partial")
        # each machine can host 0.5 of the app (0.5*2.0 = 1.0 utilization)
        assert ub.value == pytest.approx(10.0)
        assert ub.machine_utilization == pytest.approx([1.0, 1.0])

    def test_oversubscribed_system(self):
        """Demand 4x capacity -> only half the worth is achievable."""
        net = uniform_network(2)
        strings = [
            build_string(k, 1, 2, period=10.0, t=20.0, u=1.0, worth=10,
                         latency=1e9)
            for k in range(2)
        ]
        model = SystemModel(net, strings)
        ub = upper_bound(model, objective="partial")
        assert ub.value == pytest.approx(10.0)  # 2 machines / demand 4

    def test_complete_slackness_value(self):
        """Single app, work t*u/P = 0.4, splittable over 2 machines ->
        per-machine utilization 0.2 -> slackness 0.8."""
        net = uniform_network(2)
        s = build_string(0, 1, 2, period=10.0, t=4.0, u=1.0, worth=10,
                         latency=100.0)
        model = SystemModel(net, [s])
        ub = upper_bound(model, objective="complete")
        assert ub.value == pytest.approx(0.8)

    def test_route_capacity_binds(self):
        """A huge transfer forces co-location in the fractional optimum,
        keeping route utilization at bay."""
        net = uniform_network(2, bandwidth=100.0)
        s = build_string(0, 2, 2, period=10.0, t=1.0, u=0.1,
                         out=2_000.0, worth=10, latency=1e9)
        model = SystemModel(net, [s])
        ub = upper_bound(model, objective="complete")
        # co-located: route util 0, machine util 2*0.01 = 0.02... but the
        # optimum spreads compute; either way slackness > 0.9
        assert ub.value > 0.9


class TestUpperBoundDominatesHeuristics:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_scenario(self, seed):
        params = SCENARIO_1.scaled(n_strings=20, n_machines=4)
        model = generate_model(params, seed=seed)
        ub = upper_bound(model, objective="partial")
        for heuristic in (most_worth_first, tightest_first):
            res = heuristic(model)
            assert res.fitness.worth <= ub.value + 1e-6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_complete_scenario(self, seed):
        params = SCENARIO_3.scaled(n_strings=6, n_machines=4)
        model = generate_model(params, seed=seed)
        ub = upper_bound(model, objective="complete")
        for heuristic in (most_worth_first, tightest_first):
            res = heuristic(model)
            if res.n_mapped == model.n_strings:
                assert res.fitness.slackness <= ub.value + 1e-6

    def test_complete_scenario3_paper_size(self):
        """The slackness bound on scenario 3 at the paper's 25 strings."""
        ub = upper_bound(generate_model(SCENARIO_3, seed=5),
                         objective="complete")
        assert 0.0 < ub.value <= 1.0


class TestSolverAgreement:
    def test_simplex_matches_highs_partial(self):
        params = SCENARIO_1.scaled(n_strings=4, n_machines=3)
        model = generate_model(params, seed=11)
        a = upper_bound(model, objective="partial", solver="highs")
        b = upper_bound(model, objective="partial", solver="simplex")
        assert a.value == pytest.approx(b.value, rel=1e-6)

    def test_simplex_matches_highs_complete(self):
        params = SCENARIO_3.scaled(n_strings=3, n_machines=3)
        model = generate_model(params, seed=12)
        a = upper_bound(model, objective="complete", solver="highs")
        b = upper_bound(model, objective="complete", solver="simplex")
        assert a.value == pytest.approx(b.value, rel=1e-6)


class TestResultFields:
    def test_fractions_in_unit_interval(self):
        params = SCENARIO_1.scaled(n_strings=10, n_machines=3)
        model = generate_model(params, seed=5)
        ub = upper_bound(model, objective="partial")
        assert np.all(ub.string_fractions >= -1e-9)
        assert np.all(ub.string_fractions <= 1.0 + 1e-9)

    def test_total_worth_consistent(self):
        params = SCENARIO_1.scaled(n_strings=8, n_machines=3)
        model = generate_model(params, seed=6)
        ub = upper_bound(model, objective="partial")
        assert ub.total_worth == pytest.approx(ub.value, rel=1e-6)

    def test_utilizations_within_capacity(self):
        params = SCENARIO_1.scaled(n_strings=15, n_machines=3)
        model = generate_model(params, seed=7)
        ub = upper_bound(model, objective="partial")
        assert np.all(ub.machine_utilization <= 1.0 + 1e-6)
        off = ub.route_utilization[~np.eye(3, dtype=bool)]
        assert np.all(off <= 1.0 + 1e-6)

    def test_weight_by_length_at_least_plain(self):
        params = SCENARIO_1.scaled(n_strings=8, n_machines=3)
        model = generate_model(params, seed=8)
        plain = upper_bound(model, objective="partial")
        weighted = upper_bound(
            model, objective="partial", weight_by_length=True
        )
        # every string has >= 1 app, so the weighted optimum dominates
        assert weighted.value >= plain.value - 1e-6
