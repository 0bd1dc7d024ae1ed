"""Integration tests for the experiment harness (repro.experiments)."""

import numpy as np
import pytest

from repro.experiments import (
    SCALES,
    ExperimentConfig,
    ExperimentScale,
    render_table1,
    run_experiment,
    run_fig2,
    run_figure,
    run_runtime_table,
    table1_rows,
)
from repro.workload import SCENARIO_1, SCENARIO_3, generate_model

TINY = ExperimentScale(
    name="tiny",
    n_runs=2,
    size_factor=0.25,
    population_size=8,
    max_iterations=20,
    max_stale_iterations=10,
    n_trials=1,
)

#: Scale for the paper-shape checks: one-third hardware/workload size,
#: 3 runs — seconds per figure instead of hours, same load character.
BENCH_SCALE = ExperimentScale(
    name="bench",
    n_runs=3,
    size_factor=1 / 3,
    population_size=16,
    max_iterations=80,
    max_stale_iterations=40,
    n_trials=1,
)


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_paper_scale_matches_protocol(self):
        paper = SCALES["paper"]
        assert paper.n_runs == 100
        assert paper.population_size == 250
        assert paper.max_iterations == 5_000
        assert paper.max_stale_iterations == 300
        assert paper.n_trials == 4
        assert paper.size_factor == 1.0

    def test_apply_scales_proportionally(self):
        scaled = SCALES["smoke"].apply(SCENARIO_1)
        assert scaled.n_machines == 4
        assert scaled.n_strings == 50

    def test_apply_identity_at_full_size(self):
        assert SCALES["paper"].apply(SCENARIO_1) is SCENARIO_1

    def test_invalid_scale(self):
        with pytest.raises(Exception):
            ExperimentScale("x", 1, 1.5, 8, 10, 5, 1)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def outcome(self):
        config = ExperimentConfig(
            scenario=SCENARIO_1,
            heuristics=("mwf", "tf"),
            scale=TINY,
            metric="worth",
            compute_ub=True,
            ub_objective="partial",
            base_seed=500,
        )
        return run_experiment(config)

    def test_record_count(self, outcome):
        assert len(outcome.records) == 2

    def test_seeds_sequential(self, outcome):
        assert [r.seed for r in outcome.records] == [500, 501]

    def test_all_heuristics_recorded(self, outcome):
        for record in outcome.records:
            assert set(record.results) == {"mwf", "tf"}

    def test_ub_present_and_dominates(self, outcome):
        assert outcome.ub_never_beaten()
        for record in outcome.records:
            assert record.ub_value is not None
            assert record.ub_runtime > 0

    def test_aggregate_keys(self, outcome):
        agg = outcome.aggregate()
        assert set(agg) == {"mwf", "tf", "ub"}
        assert agg["mwf"].n == 2

    def test_runtimes(self, outcome):
        rts = outcome.runtimes()
        assert set(rts) == {"mwf", "tf", "ub"}
        assert all(ci.mean >= 0 for ci in rts.values())

    def test_progress_callback(self):
        config = ExperimentConfig(
            scenario=SCENARIO_3,
            heuristics=("mwf",),
            scale=TINY,
            metric="slackness",
            compute_ub=False,
            base_seed=1,
        )
        calls = []
        run_experiment(config, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 2), (2, 2)]

    def test_reproducible(self):
        config = ExperimentConfig(
            scenario=SCENARIO_3,
            heuristics=("mwf",),
            scale=TINY,
            metric="slackness",
            compute_ub=False,
            base_seed=9,
        )
        a = run_experiment(config)
        b = run_experiment(config)
        np.testing.assert_array_equal(
            a.metric_samples("mwf"), b.metric_samples("mwf")
        )

    def test_invalid_metric(self):
        with pytest.raises(Exception):
            ExperimentConfig(
                scenario=SCENARIO_1, heuristics=("mwf",), scale=TINY,
                metric="speed",
            )


class TestFigures:
    @pytest.mark.parametrize("figure,metric", [
        ("fig3", "worth"), ("fig4", "worth"), ("fig5", "slackness"),
    ])
    def test_figure_runs_and_checks(self, figure, metric):
        result = run_figure(figure, scale=TINY, compute_ub=True)
        assert result.metric == metric
        labels, means, errs = result.series()
        assert labels[-1] == "UB"
        assert len(labels) == 5
        assert result.heuristics_below_ub()
        chart = result.chart()
        assert "psg" in chart
        table = result.table()
        assert "mean" in table

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig9")

    def test_no_ub_option(self):
        result = run_figure("fig5", scale=TINY, compute_ub=False)
        assert "ub" not in result.aggregates
        assert result.heuristics_below_ub()  # vacuously true


class TestFig2:
    def test_all_cases_exact(self):
        out = run_fig2(n_datasets=30)
        for case_name, data in out.items():
            if case_name == "table":
                continue
            assert data["exact"], case_name

    def test_table_rendered(self):
        out = run_fig2(n_datasets=10)
        assert "closed form" in out["table"]


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1_rows()
        assert rows[0] == ("scenario1", "µ ∈ [4, 6]", "µ ∈ [3, 4.5]")
        assert rows[1] == ("scenario2", "µ ∈ [1.25, 2.75]", "µ ∈ [1.5, 2.5]")
        assert rows[2] == ("scenario3", "µ ∈ [4, 6]", "µ ∈ [3, 4.5]")

    def test_render(self):
        text = render_table1()
        assert "scenario2" in text and "[1.25, 2.75]" in text


class TestRuntimeTable:
    def test_ordering_claim(self):
        out = run_runtime_table(scale=TINY, seed=3)
        assert out["ordering_ok"]
        names = [r.name for r in out["rows"]]
        assert names == ["psg", "mwf", "tf", "seeded-psg", "ub (LP)"]
        assert all(r.seconds >= 0 for r in out["rows"])


class TestPaperShapes:
    """The shapes EXPERIMENTS.md reports for Figures 3-5 and the Section-8
    runtime comparison, at BENCH_SCALE with base seed 1000."""

    @pytest.fixture(scope="class")
    def fig3(self):
        return run_figure("fig3", scale=BENCH_SCALE, base_seed=1_000)

    @pytest.fixture(scope="class")
    def fig4(self):
        return run_figure("fig4", scale=BENCH_SCALE, base_seed=1_000)

    def test_fig3_total_worth_highly_loaded(self, fig3):
        assert fig3.heuristics_below_ub()
        assert fig3.evolutionary_dominates()
        agg = fig3.aggregates
        # Scenario 1 is load-bound: nobody should reach the full worth.
        model = generate_model(
            fig3.outcome.config.effective_scenario(),
            seed=fig3.outcome.records[0].seed,
        )
        assert agg["ub"].mean <= sum(s.worth for s in model.strings) + 1e-6
        assert agg["mwf"].mean > 0

    def test_fig4_total_worth_qos_limited(self, fig4):
        assert fig4.heuristics_below_ub()
        assert fig4.evolutionary_dominates()

    def test_fig4_gap_exceeds_fig3_gap(self, fig3, fig4):
        """Paper: 'The largest difference between the performance of
        heuristics and computed upper bounds was observed in simulation
        scenario 2.'  Compare relative best-heuristic/UB ratios."""

        def best_ratio(fig):
            agg = fig.aggregates
            best = max(
                agg[h].mean for h in ("psg", "seeded-psg", "mwf", "tf")
            )
            return best / agg["ub"].mean

        assert best_ratio(fig4) < best_ratio(fig3)

    def test_fig5_slackness_lightly_loaded(self):
        result = run_figure("fig5", scale=BENCH_SCALE, base_seed=1_000)
        assert result.heuristics_below_ub()
        assert result.evolutionary_dominates()
        # complete allocation: every heuristic mapped every string
        scenario = result.outcome.config.effective_scenario()
        for record in result.outcome.records:
            for name, (_w, _s, _rt, n_mapped) in record.results.items():
                assert n_mapped == scenario.n_strings, (name, record.seed)
        # slackness values live in (0, 1) for a loaded-but-light system
        for name in ("psg", "mwf", "tf", "seeded-psg"):
            assert 0.0 < result.aggregates[name].mean < 1.0

    def test_runtime_ordering(self):
        """Evolutionary heuristics are orders of magnitude slower than the
        single-shot ones (Section 8)."""
        out = run_runtime_table(scale=BENCH_SCALE, seed=2_000)
        assert out["ordering_ok"]
        timings = {r.name: r.seconds for r in out["rows"]}
        assert timings["psg"] > 10 * timings["mwf"]
        assert timings["seeded-psg"] > 10 * timings["tf"]
