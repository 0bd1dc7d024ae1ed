"""Unit tests for analytic-vs-simulated validation (repro.des.validate)."""

import numpy as np
import pytest

from repro.core import Allocation, SystemModel
from repro.des import compare_to_estimates, simulate_allocation
from repro.experiments.fig2 import FIG2_CASES, build_case_model
from repro.heuristics import most_worth_first
from repro.workload import SCENARIO_3, generate_model

from conftest import build_string, uniform_network


class TestExactCases:
    @pytest.mark.parametrize("case", FIG2_CASES, ids=lambda c: c.name)
    def test_zero_error_on_fig2(self, case):
        _model, alloc = build_case_model(case)
        cmp = compare_to_estimates(alloc, n_datasets=40, skip_datasets=2)
        assert cmp.max_comp_error() < 1e-9

    def test_unshared_system_exact(self):
        net = uniform_network(2, bandwidth=1_000.0)
        s = build_string(0, 2, 2, period=50.0, t=4.0, u=0.5, out=500.0,
                         latency=1e6)
        model = SystemModel(net, [s])
        alloc = Allocation(model, {0: [0, 1]})
        cmp = compare_to_estimates(alloc, n_datasets=10, skip_datasets=1)
        assert cmp.max_comp_error() < 1e-9
        est, meas = cmp.tran[(0, 0)]
        assert meas == pytest.approx(est)
        est_l, meas_l = cmp.latency[0]
        assert meas_l == pytest.approx(est_l)


class TestConservatism:
    def test_estimates_upper_bound_random_phase_means(self):
        """Eq. (5) assumes worst-case period alignment; for aligned
        harmonic periods it is exact, and for general loads the measured
        steady-state mean must not exceed the estimate by more than noise."""
        net = uniform_network(2)
        tight = build_string(0, 1, 2, period=12.0, t=3.0, u=0.8,
                             latency=7.0)
        loose = build_string(1, 1, 2, period=9.0, t=2.0, u=1.0,
                             latency=900.0)
        model = SystemModel(net, [tight, loose])
        alloc = Allocation(model, {0: [0], 1: [0]})
        cmp = compare_to_estimates(alloc, n_datasets=200, skip_datasets=20)
        est, meas = cmp.comp[(1, 0)]
        assert meas <= est * 1.05

    def test_generated_allocation_pipeline(self):
        """A heuristic's mapping of a generated model: every string
        completes every data set, and steady-state means stay below the
        worst-case-phase estimates, modulo a small numerical margin."""
        model = generate_model(
            SCENARIO_3.scaled(n_strings=8, n_machines=4), seed=9
        )
        alloc = most_worth_first(model).allocation
        trace = simulate_allocation(alloc, 20)
        for k in alloc:
            assert trace.completed_datasets(k) == 20
        cmp = compare_to_estimates(alloc, n_datasets=30, skip_datasets=3)
        for (k, i), (est, meas) in cmp.comp.items():
            assert meas <= est * 1.05 + 1e-9, (k, i)


class TestReporting:
    def test_summary_text(self):
        _model, alloc = build_case_model(FIG2_CASES[0])
        cmp = compare_to_estimates(alloc, n_datasets=10, skip_datasets=1)
        assert "applications" in cmp.summary()

    def test_relative_errors_shape(self):
        _model, alloc = build_case_model(FIG2_CASES[0])
        cmp = compare_to_estimates(alloc, n_datasets=10, skip_datasets=1)
        errs = cmp.comp_relative_errors()
        assert errs.shape == (2,)
        assert np.all(errs >= 0)

    def test_latency_included_for_completed_strings(self):
        _model, alloc = build_case_model(FIG2_CASES[1])
        cmp = compare_to_estimates(alloc, n_datasets=10, skip_datasets=1)
        assert set(cmp.latency) == {0, 1}


class TestRandomPhases:
    def test_phase_validation(self):
        from repro.des import StringSimulator
        from repro.core import SimulationError

        _model, alloc = build_case_model(FIG2_CASES[0])
        with pytest.raises(SimulationError):
            StringSimulator(alloc, phases={9: 1.0})
        with pytest.raises(SimulationError):
            StringSimulator(alloc, phases={0: -0.5})

    def test_phases_shift_releases(self):
        from repro.des import simulate_allocation

        _model, alloc = build_case_model(FIG2_CASES[0])
        trace = simulate_allocation(
            alloc, n_datasets=3, phases={0: 2.5}
        )
        starts = sorted(
            rec.release for rec in trace.comp_spans if rec.string_id == 0
        )
        assert starts[0] == pytest.approx(2.5)

    def test_random_phase_conservatism(self):
        """De-phased arrivals never exceed the aligned-case estimates."""
        from repro.des import random_phase_comparison
        from repro.heuristics import most_worth_first
        from repro.workload import SCENARIO_3, generate_model

        model = generate_model(
            SCENARIO_3.scaled(n_strings=6, n_machines=4), seed=31
        )
        res = most_worth_first(model)
        cmp = random_phase_comparison(res.allocation, rng=2)
        for (k, i), (est, meas) in cmp.comp.items():
            assert meas <= est * 1.05 + 1e-9, (k, i)

    def test_deterministic_given_rng(self):
        from repro.des import random_phase_comparison
        from repro.heuristics import most_worth_first
        from repro.workload import SCENARIO_3, generate_model

        model = generate_model(
            SCENARIO_3.scaled(n_strings=4, n_machines=3), seed=32
        )
        res = most_worth_first(model)
        a = random_phase_comparison(res.allocation, rng=5, n_datasets=20)
        b = random_phase_comparison(res.allocation, rng=5, n_datasets=20)
        assert a.comp == b.comp


class TestPhaseSensitivity:
    """The aligned-period worst case is exactly what eq. (5) models;
    de-phasing strictly reduces the measured waiting in the Figure-2
    geometry."""

    def test_antiphase_eliminates_waiting(self):
        """Case 1 (equal periods, u=1): offsetting the low-priority
        string's releases by t1 means the CPU is always free when its
        data sets arrive — measured span drops to the nominal t2,
        strictly below the eq. (5) estimate of t2 + t1."""
        case = FIG2_CASES[0]
        _model, alloc = build_case_model(case)
        cmp = compare_to_estimates(
            alloc, n_datasets=30, skip_datasets=2,
            phases={1: case.t1},  # release after the high-prio burst
        )
        est, meas = cmp.comp[(1, 0)]
        assert est == pytest.approx(case.t2 + case.t1)
        assert meas == pytest.approx(case.t2)

    def test_partial_offset_partial_waiting(self):
        """An offset smaller than t1 removes exactly that much waiting."""
        case = FIG2_CASES[0]
        _model, alloc = build_case_model(case)
        offset = case.t1 / 2
        cmp = compare_to_estimates(
            alloc, n_datasets=30, skip_datasets=2, phases={1: offset},
        )
        _est, meas = cmp.comp[(1, 0)]
        assert meas == pytest.approx(case.t2 + case.t1 - offset)
