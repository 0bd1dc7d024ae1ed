"""Tests for small utilities and error paths not covered elsewhere."""

import time

import numpy as np
import pytest

from repro import __version__
from repro.core import InfeasibleError, ReproError, SolverError
from repro.core.exceptions import (
    AllocationError,
    ModelError,
    SimulationError,
)
from repro.heuristics import timed_section
from repro.workload import SCENARIO_3, generate_model


class TestExceptions:
    def test_hierarchy(self):
        for exc in (
            ModelError, AllocationError, InfeasibleError, SolverError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)

    def test_infeasible_error_carries_violations(self):
        err = InfeasibleError("nope", violations=["a", "b"])
        assert err.violations == ["a", "b"]
        assert InfeasibleError("nope").violations == []


class TestVersion:
    def test_version_string(self):
        parts = __version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestTimedSection:
    def test_measures_elapsed(self):
        with timed_section() as box:
            time.sleep(0.01)
        assert box[0] >= 0.009

    def test_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with timed_section() as box:
                raise RuntimeError("boom")
        assert box[0] >= 0.0


class TestTraceErrors:
    def test_mean_latency_without_data(self):
        from repro.des.trace import SimulationTrace

        trace = SimulationTrace()
        with pytest.raises(ValueError):
            trace.mean_latency(0)
        with pytest.raises(ValueError):
            trace.max_latency(0)

    def test_completed_datasets_zero(self):
        from repro.des.trace import SimulationTrace

        assert SimulationTrace().completed_datasets(3) == 0


class TestParallelRunner:
    def test_process_pool_path(self):
        """n_workers > 1 exercises the ProcessPoolExecutor branch and
        must produce identical records to the sequential path."""
        from repro.experiments import (
            ExperimentConfig,
            ExperimentScale,
            run_experiment,
        )
        from repro.workload import SCENARIO_3

        tiny = ExperimentScale("t", 2, 0.25, 8, 5, 5, 1)
        config = ExperimentConfig(
            scenario=SCENARIO_3,
            heuristics=("mwf",),
            scale=tiny,
            metric="slackness",
            compute_ub=False,
            base_seed=77,
        )
        seq = run_experiment(config, n_workers=1)
        par = run_experiment(config, n_workers=2)
        np.testing.assert_array_equal(
            seq.metric_samples("mwf"), par.metric_samples("mwf")
        )


class TestHeuristicResultSummary:
    def test_summary_fields(self):
        from repro.heuristics import most_worth_first

        model = generate_model(
            SCENARIO_3.scaled(n_strings=3, n_machines=2), seed=1
        )
        res = most_worth_first(model)
        text = res.summary()
        assert "worth=" in text and "slack=" in text and "mapped=" in text
