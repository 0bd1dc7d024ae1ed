"""Unit tests for the workload generator (repro.workload, Section 6)."""

import numpy as np
import pytest

from repro.core import ModelError
from repro.workload import (
    KBYTE,
    MB_PER_SEC,
    SCENARIO_1,
    SCENARIO_2,
    SCENARIO_3,
    SCENARIOS,
    ScenarioParameters,
    generate_model,
    generate_network,
    generate_string,
    get_scenario,
)


class TestScenarioDefinitions:
    """Table 1 and Section 6 constants must match the paper exactly."""

    def test_scenario1_table1(self):
        assert SCENARIO_1.latency_mu == (4.0, 6.0)
        assert SCENARIO_1.period_mu == (3.0, 4.5)
        assert SCENARIO_1.n_strings == 150

    def test_scenario2_table1(self):
        assert SCENARIO_2.latency_mu == (1.25, 2.75)
        assert SCENARIO_2.period_mu == (1.5, 2.5)
        assert SCENARIO_2.n_strings == 150

    def test_scenario3_table1(self):
        assert SCENARIO_3.latency_mu == (4.0, 6.0)
        assert SCENARIO_3.period_mu == (3.0, 4.5)
        assert SCENARIO_3.n_strings == 25

    def test_shared_hardware_constants(self):
        for s in SCENARIOS.values():
            assert s.n_machines == 12
            assert s.bandwidth_range == (1.0 * MB_PER_SEC, 10.0 * MB_PER_SEC)
            assert s.apps_per_string == (1, 10)
            assert s.comp_time_range == (1.0, 10.0)
            assert s.cpu_util_range == (0.1, 1.0)
            assert s.output_size_range == (10.0 * KBYTE, 100.0 * KBYTE)
            assert s.worth_choices == (1, 10, 100)

    def test_get_scenario_by_digit(self):
        assert get_scenario("2") is SCENARIO_2
        assert get_scenario("scenario3") is SCENARIO_3

    def test_get_scenario_unknown(self):
        with pytest.raises(ModelError):
            get_scenario("scenario9")

    def test_scaled_override(self):
        scaled = SCENARIO_1.scaled(n_strings=10, n_machines=4)
        assert scaled.n_strings == 10
        assert scaled.n_machines == 4
        assert scaled.latency_mu == SCENARIO_1.latency_mu

    @pytest.mark.parametrize("kwargs", [
        dict(n_strings=0),
        dict(n_machines=0),
        dict(latency_mu=(0.0, 1.0)),
        dict(period_mu=(2.0, 1.0)),
        dict(cpu_util_range=(0.5, 1.2)),
        dict(apps_per_string=(0, 5)),
        dict(worth_choices=(0, 10)),
        dict(worth_choices=()),
    ])
    def test_validation(self, kwargs):
        base = dict(
            name="x", description="", n_strings=5,
            latency_mu=(4, 6), period_mu=(3, 4.5),
        )
        base.update(kwargs)
        with pytest.raises(ModelError):
            ScenarioParameters(**base)


class TestGenerateNetwork:
    def test_shape_and_ranges(self):
        rng = np.random.default_rng(0)
        net = generate_network(SCENARIO_1, rng)
        assert net.n_machines == 12
        off = net.bandwidth[~np.eye(12, dtype=bool)]
        assert np.all(off >= 1.0 * MB_PER_SEC)
        assert np.all(off <= 10.0 * MB_PER_SEC)
        assert np.all(np.isinf(np.diag(net.bandwidth)))


class TestGenerateString:
    @pytest.fixture
    def net(self):
        return generate_network(SCENARIO_1, np.random.default_rng(1))

    def test_parameter_ranges(self, net):
        rng = np.random.default_rng(2)
        for k in range(30):
            s = generate_string(k, SCENARIO_1, net, rng)
            assert 1 <= s.n_apps <= 10
            assert np.all((s.comp_times >= 1.0) & (s.comp_times <= 10.0))
            assert np.all((s.cpu_utils >= 0.1) & (s.cpu_utils <= 1.0))
            assert np.all(s.output_sizes >= 10.0 * KBYTE)
            assert np.all(s.output_sizes <= 100.0 * KBYTE)
            assert s.worth in (1, 10, 100)

    def test_latency_formula(self, net):
        """Lmax = µ_L * (sum of average stage times), µ_L in [4, 6]."""
        rng = np.random.default_rng(3)
        for k in range(20):
            s = generate_string(k, SCENARIO_1, net, rng)
            nominal = float(
                s.avg_comp_times.sum()
                + (s.output_sizes * net.avg_inv_bandwidth).sum()
            )
            mu = s.max_latency / nominal
            assert 4.0 <= mu <= 6.0

    def test_period_formula(self, net):
        """P = µ_P * max stage time, µ_P in [3, 4.5]."""
        rng = np.random.default_rng(4)
        for k in range(20):
            s = generate_string(k, SCENARIO_1, net, rng)
            stages = np.concatenate([
                s.avg_comp_times, s.output_sizes * net.avg_inv_bandwidth
            ])
            mu = s.period / stages.max()
            assert 3.0 <= mu <= 4.5

    def test_scenario2_tighter(self, net):
        rng = np.random.default_rng(5)
        s = generate_string(0, SCENARIO_2, net, rng)
        nominal = float(
            s.avg_comp_times.sum()
            + (s.output_sizes * net.avg_inv_bandwidth).sum()
        )
        assert 1.25 <= s.max_latency / nominal <= 2.75


class TestGenerateModel:
    def test_counts(self):
        model = generate_model(SCENARIO_3, seed=0)
        assert model.n_strings == 25
        assert model.n_machines == 12

    def test_deterministic_by_seed(self):
        a = generate_model(SCENARIO_3, seed=42)
        b = generate_model(SCENARIO_3, seed=42)
        assert a.network == b.network
        for sa, sb in zip(a.strings, b.strings):
            assert sa == sb

    def test_different_seeds_differ(self):
        a = generate_model(SCENARIO_3, seed=1)
        b = generate_model(SCENARIO_3, seed=2)
        assert a.network != b.network

    def test_accepts_generator(self):
        rng = np.random.default_rng(9)
        model = generate_model(SCENARIO_3, seed=rng)
        assert model.n_strings == 25

    def test_string_ids_consecutive(self):
        model = generate_model(SCENARIO_1, seed=0)
        assert [s.string_id for s in model.strings] == list(range(150))

    def test_worth_distribution_covers_all_levels(self):
        model = generate_model(SCENARIO_1, seed=0)
        worths = {s.worth for s in model.strings}
        assert worths == {1.0, 10.0, 100.0}
