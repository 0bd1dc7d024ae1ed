"""Unit tests for the Incremental Mapping Routine (repro.heuristics.imr)."""

import numpy as np
import pytest

from repro.core import AllocationState, AppString, SystemModel
from repro.heuristics import imr_map_string

from conftest import build_string, uniform_network


class TestSingleApp:
    def test_picks_least_utilized_machine(self):
        net = uniform_network(3)
        s = build_string(0, 1, 3, period=10.0, t=2.0, u=0.5)
        pre = build_string(1, 1, 3, period=10.0, t=5.0, u=1.0)
        model = SystemModel(net, [s, pre])
        state = AllocationState(model)
        state.try_add(1, [0])  # load machine 0
        assignment = imr_map_string(state, 0)
        assert assignment[0] in (1, 2)  # not the loaded machine

    def test_heterogeneous_times_guide_choice(self):
        net = uniform_network(2)
        comp = np.array([[8.0, 2.0]])  # machine 1 is 4x faster
        s = AppString(0, 1, 10.0, 100.0, comp, np.full((1, 2), 1.0),
                      np.empty(0))
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assert imr_map_string(state, 0)[0] == 1

    def test_tie_break_lowest_index(self):
        net = uniform_network(4)
        s = build_string(0, 1, 4)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assert imr_map_string(state, 0)[0] == 0

    def test_random_tie_break_seeded(self):
        net = uniform_network(4)
        s = build_string(0, 1, 4)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        picks = {
            int(imr_map_string(state, 0, rng=np.random.default_rng(i))[0])
            for i in range(20)
        }
        assert len(picks) > 1  # randomized ties actually vary
        assert picks <= {0, 1, 2, 3}


class TestMultiApp:
    def test_assignment_complete_and_valid(self, scenario1_small):
        model = scenario1_small
        state = AllocationState(model)
        for s in model.strings[:10]:
            assignment = imr_map_string(state, s.string_id)
            assert len(assignment) == s.n_apps
            assert min(assignment) >= 0
            assert max(assignment) < model.n_machines
            state.try_add(s.string_id, assignment)

    def test_does_not_mutate_state(self, small_model):
        state = AllocationState(small_model)
        before_m = state.machine_util.copy()
        before_r = state.route_util.copy()
        imr_map_string(state, 3)
        np.testing.assert_array_equal(state.machine_util, before_m)
        np.testing.assert_array_equal(state.route_util, before_r)

    def test_starts_from_most_intensive_app(self):
        """The most intensive app gets the machine-only greedy choice."""
        net = uniform_network(2)
        # app 1 is by far the most intensive; machine 1 is cheaper for it
        comp = np.array([[2.0, 2.0], [9.0, 3.0], [2.0, 2.0]])
        util = np.array([[0.2, 0.2], [1.0, 1.0], [0.2, 0.2]])
        s = AppString(0, 1, 10.0, 1_000.0, comp, util,
                      np.array([10.0, 10.0]))
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assignment = imr_map_string(state, 0)
        # work on m0 = 9, on m1 = 3 -> must pick machine 1 for app 1
        assert assignment[1] == 1

    def test_network_awareness(self):
        """With huge transfers and one congested route, neighbours of the
        anchor app avoid crossing the loaded route."""
        bw = np.full((2, 2), 1_000.0)
        np.fill_diagonal(bw, np.inf)
        net = __import__("repro").core.Network(bw)
        # two-app string with a big transfer; machine loads equal
        s = build_string(0, 2, 2, period=100.0, t=5.0, u=0.5,
                         out=20_000.0, latency=1e6)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assignment = imr_map_string(state, 0)
        # transfer util inter-machine = (20000/100)/1000 = 0.2 vs
        # co-location machine util = 2*0.025 = 0.05 -> colocate
        assert assignment[0] == assignment[1]

    def test_spreads_when_transfers_cheap(self):
        net = uniform_network(3, bandwidth=1e9)
        s = build_string(0, 3, 3, period=10.0, t=5.0, u=1.0, out=10.0,
                         latency=1e6)
        model = SystemModel(net, [s])
        state = AllocationState(model)
        assignment = imr_map_string(state, 0)
        # each app contributes 0.5 utilization; spreading dominates
        assert len(set(int(j) for j in assignment)) == 3


class TestDeterminism:
    def test_repeatable_without_rng(self, scenario1_small):
        model = scenario1_small
        s1 = AllocationState(model)
        s2 = AllocationState(model)
        for s in model.strings[:8]:
            a1 = imr_map_string(s1, s.string_id)
            a2 = imr_map_string(s2, s.string_id)
            np.testing.assert_array_equal(a1, a2)
            s1.try_add(s.string_id, a1)
            s2.try_add(s.string_id, a2)
