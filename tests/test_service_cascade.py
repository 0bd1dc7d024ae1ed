"""Solver cascade and mission controller tests.

The cascade tests use the cheap greedy tiers (mwf/tf) so that real
heuristics run in milliseconds; fake heuristics (installed through the
registry lookup hook) drive the failure, overrun, and GA-budget paths
deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.service.cascade as cascade_mod
from repro.core import analyze
from repro.core.exceptions import ModelError
from repro.dynamic.policies import carry_forward
from repro.faults.events import MachineFailure
from repro.heuristics import HeuristicResult, get_heuristic
from repro.service import (
    BreakerConfig,
    BreakerState,
    CascadeConfig,
    CascadeResult,
    Deadline,
    DriftStep,
    FaultsCleared,
    HealthConfig,
    HealthState,
    MissionController,
    PlatformFault,
    RetryPolicy,
    ServiceConfig,
    SolverCascade,
    StatePolicy,
    StringArrival,
    StringDeparture,
    TierSpec,
    build_working_model,
)
from repro.workload import SCENARIO_3, generate_model


class FakeClock:
    def __init__(self, start: float = 50.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


GREEDY_TIERS = (
    TierSpec("mwf", share=0.5),
    TierSpec("tf", share=1.0, guaranteed=True),
)


def greedy_config(**overrides) -> CascadeConfig:
    return CascadeConfig(tiers=GREEDY_TIERS, **overrides)


#: a GA tier ahead of the greedy ones, as in the default cascade
GA_TIERS = (TierSpec("psg", share=0.6), *GREEDY_TIERS)


def incumbent_of(model, allocation) -> HeuristicResult:
    """A carry-forward floor built the way the controller builds it."""
    state, _ = carry_forward(model, allocation)
    return HeuristicResult(
        name="carry-forward",
        allocation=state.as_allocation(),
        fitness=state.fitness(),
        order=tuple(state.mapped_ids),
        mapped_ids=tuple(state.mapped_ids),
    )


def complete_incumbent(model) -> HeuristicResult:
    full = get_heuristic("mwf")(model, rng=np.random.default_rng(0))
    incumbent = incumbent_of(model, full.allocation)
    assert len(incumbent.mapped_ids) == model.n_strings
    return incumbent


@pytest.fixture(scope="module")
def model():
    return generate_model(
        SCENARIO_3.scaled(n_strings=5, n_machines=4), seed=3
    )


@pytest.fixture(scope="module")
def catalog():
    return generate_model(
        SCENARIO_3.scaled(n_strings=6, n_machines=5), seed=11
    )


# ---------------------------------------------------------------------------
# cascade configuration
# ---------------------------------------------------------------------------


class TestCascadeConfig:
    def test_needs_at_least_one_tier(self):
        with pytest.raises(ModelError):
            CascadeConfig(tiers=())

    def test_final_tier_must_be_guaranteed(self):
        with pytest.raises(ModelError):
            CascadeConfig(tiers=(TierSpec("mwf"), TierSpec("tf")))

    def test_tier_share_bounds(self):
        with pytest.raises(ModelError):
            TierSpec("mwf", share=0.0)
        with pytest.raises(ModelError):
            TierSpec("mwf", share=1.5)

    def test_overrun_and_budget_validation(self):
        with pytest.raises(ModelError):
            greedy_config(overrun_factor=0.5)
        with pytest.raises(ModelError):
            greedy_config(min_tier_budget=0.0)

    def test_default_tiers_are_greedy_first_psg_then_tf_last(self):
        config = CascadeConfig()
        names = [tier.heuristic for tier in config.tiers]
        assert names == ["mwf+ls", "mwf", "psg", "tf"]
        assert config.tiers[-1].guaranteed
        assert not any(tier.guaranteed for tier in config.tiers[:-1])


# ---------------------------------------------------------------------------
# cascade solving
# ---------------------------------------------------------------------------


class TestSolverCascade:
    def test_solve_returns_feasible_best_within_deadline(self, model):
        cascade = SolverCascade(greedy_config())
        result = cascade.solve(model, Deadline(5.0), rng=0)
        assert result.best is not None
        assert result.deadline_hit
        assert result.tier_used in {"mwf", "tf"}
        assert [a.status for a in result.attempts] == ["ok", "ok"]
        assert analyze(result.best.allocation).feasible
        assert "deadline_hit=True" in result.summary()

    def test_best_is_the_lexicographic_max_over_tiers(self, model):
        cascade = SolverCascade(greedy_config())
        result = cascade.solve(model, Deadline(5.0), rng=0)
        produced = [
            a.result for a in result.attempts if a.result is not None
        ]
        assert result.best.fitness == max(r.fitness for r in produced)

    def test_policy_restriction_skips_tier_guaranteed_still_runs(
        self, model
    ):
        cascade = SolverCascade(greedy_config())
        result = cascade.solve(
            model, Deadline(5.0), allowed_tiers=frozenset(), rng=0
        )
        assert [a.status for a in result.attempts] == [
            "skipped-policy", "ok",
        ]
        assert result.tier_used == "tf"
        assert result.best is not None

    def test_expired_deadline_skips_to_guaranteed_tier(self, model):
        clock = FakeClock()
        cascade = SolverCascade(
            greedy_config(), clock=clock, sleep=lambda s: None
        )
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)  # budget already gone before the first tier
        result = cascade.solve(model, deadline, rng=0)
        assert [a.status for a in result.attempts] == [
            "skipped-budget", "ok",
        ]
        assert result.best is not None  # never empty-handed
        assert not result.deadline_hit  # but honest about being late

    def test_open_breaker_skips_tier(self, model):
        cascade = SolverCascade(
            greedy_config(breaker=BreakerConfig(failure_threshold=2))
        )
        for _ in range(2):
            cascade.breakers["mwf"].record_failure()
        result = cascade.solve(model, Deadline(5.0), rng=0)
        assert result.attempts[0].status == "skipped-breaker"
        assert result.attempts[0].detail == "open"
        assert result.tier_used == "tf"

    def test_ga_tier_receives_remaining_budget_as_wall_clock_rule(
        self, model, monkeypatch
    ):
        captured: dict[str, object] = {}
        real_mwf = get_heuristic("mwf")

        def fake_lookup(name):
            def run(model, rng=None, config=None):
                if config is not None:
                    captured[name] = config
                return real_mwf(model)

            return run

        monkeypatch.setattr(cascade_mod, "get_heuristic", fake_lookup)
        config = CascadeConfig(
            tiers=(
                TierSpec("psg", share=0.5),
                TierSpec("tf", share=1.0, guaranteed=True),
            ),
            ga_population=30,
            ga_max_iterations=500,
            ga_max_stale=50,
        )
        cascade = SolverCascade(config)
        cascade.solve(model, Deadline(2.0), rng=0)
        ga_config = captured["psg"]
        assert ga_config.population_size == 30
        rules = ga_config.rules
        assert rules.max_iterations == 500
        assert rules.max_stale_iterations == 50
        # the anytime contract: half the (2s) deadline, minus overhead
        assert rules.max_wall_seconds == pytest.approx(1.0, rel=0.1)
        # only the interruptible tier got a GA config
        assert "tf" not in captured

    def test_failing_tier_records_error_and_guaranteed_rescues(
        self, model, monkeypatch
    ):
        real = get_heuristic

        def fake_lookup(name):
            if name == "mwf":
                def broken(model, rng=None):
                    raise RuntimeError("solver crashed")

                return broken
            return real(name)

        monkeypatch.setattr(cascade_mod, "get_heuristic", fake_lookup)
        cascade = SolverCascade(
            greedy_config(
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.0, jitter=0.0
                )
            ),
            sleep=lambda s: None,
        )
        result = cascade.solve(model, Deadline(5.0), rng=0)
        assert result.attempts[0].status == "error"
        assert "solver crashed" in result.attempts[0].detail
        assert cascade.breakers["mwf"].n_failures == 1
        assert result.tier_used == "tf"
        assert result.deadline_hit

    def test_overrun_reports_timeout_but_keeps_the_result(
        self, model, monkeypatch
    ):
        clock = FakeClock()
        real_mwf = get_heuristic("mwf")

        def fake_lookup(name):
            def slow(model, rng=None):
                clock.advance(10.0)  # blows any budget
                return real_mwf(model)

            return slow

        monkeypatch.setattr(cascade_mod, "get_heuristic", fake_lookup)
        cascade = SolverCascade(
            greedy_config(), clock=clock, sleep=lambda s: None
        )
        result = cascade.solve(model, Deadline(1.0, clock=clock), rng=0)
        assert [a.status for a in result.attempts] == [
            "timeout", "timeout",
        ]
        assert result.best is not None  # late answers still count
        assert not result.deadline_hit
        assert cascade.breakers["mwf"].n_failures == 1
        assert cascade.breakers["tf"].n_failures == 1

    def test_repeated_overruns_trip_the_breaker_across_requests(
        self, model, monkeypatch
    ):
        clock = FakeClock()
        real_mwf = get_heuristic("mwf")

        def fake_lookup(name):
            def slow(model, rng=None):
                clock.advance(10.0)
                return real_mwf(model)

            return slow

        monkeypatch.setattr(cascade_mod, "get_heuristic", fake_lookup)
        cascade = SolverCascade(
            greedy_config(breaker=BreakerConfig(failure_threshold=2)),
            clock=clock,
            sleep=lambda s: None,
        )
        for _ in range(2):
            cascade.solve(model, Deadline(1.0, clock=clock), rng=0)
        third = cascade.solve(model, Deadline(1.0, clock=clock), rng=0)
        assert third.attempts[0].status == "skipped-breaker"

    def test_budget_skipped_half_open_probe_is_not_consumed(self, model):
        clock = FakeClock()
        cascade = SolverCascade(
            greedy_config(
                breaker=BreakerConfig(failure_threshold=1, reset_timeout=10)
            ),
            clock=clock,
            sleep=lambda s: None,
        )
        breaker = cascade.breakers["mwf"]
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state is BreakerState.HALF_OPEN
        starved = cascade.solve(model, Deadline(0.001, clock=clock), rng=0)
        assert starved.attempts[0].status == "skipped-budget"
        # the probe is still available: the next ample request takes it
        ample = cascade.solve(model, Deadline(5.0, clock=clock), rng=0)
        assert ample.attempts[0].status == "ok"
        assert breaker.state is BreakerState.CLOSED

    def test_empty_result_only_when_nothing_could_run(self, model):
        result = CascadeResult(
            best=None, attempts=[], deadline_hit=False, elapsed_seconds=0.0
        )
        assert result.tier_used is None
        assert "tier=none" in result.summary()


class TestIncumbent:
    """``solve(incumbent=...)``: the floor seeds the search, wins ties,
    and a GA tier is skipped while the best places every string."""

    @staticmethod
    def recording_lookup(monkeypatch, called: list[str]):
        """Record each tier called; ``psg`` answers with mwf's result."""
        real = get_heuristic

        def lookup(name):
            heuristic = real("mwf" if name == "psg" else name)

            def run(model, rng=None, **kwargs):
                called.append(name)
                return heuristic(model, rng=rng)

            return run

        monkeypatch.setattr(cascade_mod, "get_heuristic", lookup)

    def test_complete_incumbent_skips_ga_greedy_tiers_still_run(
        self, model, monkeypatch
    ):
        incumbent = complete_incumbent(model)
        real = get_heuristic

        def lookup(name):
            if name == "psg":
                raise AssertionError("psg must not run")
            return real(name)

        monkeypatch.setattr(cascade_mod, "get_heuristic", lookup)
        cascade = SolverCascade(CascadeConfig(tiers=GA_TIERS))
        result = cascade.solve(
            model, Deadline(5.0), rng=0, incumbent=incumbent
        )
        assert [a.status for a in result.attempts] == [
            "skipped-incumbent", "ok", "ok",
        ]
        assert result.best.fitness >= incumbent.fitness
        # ties go to the incumbent
        assert (
            result.best is incumbent
            or result.best.fitness > incumbent.fitness
        )
        assert result.deadline_hit

    def test_incomplete_incumbent_runs_the_ga(self, model, monkeypatch):
        full = get_heuristic("mwf")(model, rng=np.random.default_rng(0))
        partial = incumbent_of(
            model, full.allocation.restricted_to(full.mapped_ids[:2])
        )
        assert len(partial.mapped_ids) < model.n_strings
        called: list[str] = []
        self.recording_lookup(monkeypatch, called)
        cascade = SolverCascade(CascadeConfig(tiers=GA_TIERS))
        result = cascade.solve(
            model, Deadline(5.0), rng=0, incumbent=partial
        )
        assert called[0] == "psg"
        assert result.attempts[0].status == "ok"
        assert result.best.fitness > partial.fitness

    def test_incumbent_skip_keeps_a_half_open_probe(
        self, model, monkeypatch
    ):
        clock = FakeClock()
        cascade = SolverCascade(
            CascadeConfig(
                tiers=GA_TIERS,
                breaker=BreakerConfig(failure_threshold=1, reset_timeout=10),
            ),
            clock=clock,
            sleep=lambda s: None,
        )
        self.recording_lookup(monkeypatch, [])
        breaker = cascade.breakers["psg"]
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state is BreakerState.HALF_OPEN
        result = cascade.solve(
            model,
            Deadline(5.0, clock=clock),
            rng=0,
            incumbent=complete_incumbent(model),
        )
        assert result.attempts[0].status == "skipped-incumbent"
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe was never handed out

    def test_no_incumbent_runs_every_tier_as_before(
        self, model, monkeypatch
    ):
        called: list[str] = []
        self.recording_lookup(monkeypatch, called)
        cascade = SolverCascade(CascadeConfig(tiers=GA_TIERS))
        result = cascade.solve(model, Deadline(5.0), rng=0, incumbent=None)
        assert called == ["psg", "mwf", "tf"]
        assert [a.status for a in result.attempts] == ["ok", "ok", "ok"]
        # psg ties mwf and beats tf: the first tier at the maximum wins
        assert result.best is result.attempts[0].result
        assert result.deadline_hit

    # -- the default order: greedy tiers first, the GA where they fall short

    def test_default_psg_skipped_when_greedy_places_every_string(
        self, model, monkeypatch
    ):
        called: list[str] = []
        self.recording_lookup(monkeypatch, called)
        result = SolverCascade().solve(model, Deadline(5.0), rng=0)
        assert called == ["mwf+ls", "mwf", "tf"]
        assert [(a.tier, a.status) for a in result.attempts] == [
            ("mwf+ls", "ok"),
            ("mwf", "ok"),
            ("psg", "skipped-incumbent"),
            ("tf", "ok"),
        ]
        first = result.attempts[0].result
        assert len(first.mapped_ids) == model.n_strings
        assert result.best.fitness >= first.fitness

    def test_default_psg_runs_after_greedy_tiers_leave_a_string(
        self, monkeypatch
    ):
        tight = generate_model(
            SCENARIO_3.scaled(n_strings=8, n_machines=3), seed=1
        )
        full = get_heuristic("mwf")(tight, rng=np.random.default_rng(0))
        partial = incumbent_of(
            tight, full.allocation.restricted_to(full.mapped_ids[:2])
        )
        called: list[str] = []
        self.recording_lookup(monkeypatch, called)
        result = SolverCascade().solve(
            tight, Deadline(5.0), rng=0, incumbent=partial
        )
        assert called == ["mwf+ls", "mwf", "psg", "tf"]
        greedy = [a.result for a in result.attempts[:2]]
        assert all(len(r.mapped_ids) < tight.n_strings for r in greedy)
        assert [a.status for a in result.attempts] == ["ok"] * 4
        for earlier in [partial, *greedy]:
            assert result.best.fitness >= earlier.fitness
        assert analyze(result.best.allocation).feasible

    def test_default_psg_skip_keeps_a_half_open_probe(
        self, model, monkeypatch
    ):
        clock = FakeClock()
        cascade = SolverCascade(
            CascadeConfig(
                breaker=BreakerConfig(failure_threshold=1, reset_timeout=10)
            ),
            clock=clock,
            sleep=lambda s: None,
        )
        self.recording_lookup(monkeypatch, [])
        breaker = cascade.breakers["psg"]
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state is BreakerState.HALF_OPEN
        result = cascade.solve(model, Deadline(5.0, clock=clock), rng=0)
        assert result.attempts[2].tier == "psg"
        assert result.attempts[2].status == "skipped-incumbent"
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe was never handed out


# ---------------------------------------------------------------------------
# mission controller
# ---------------------------------------------------------------------------


def service_config(**overrides) -> ServiceConfig:
    overrides.setdefault("default_budget", 0.5)
    overrides.setdefault("cascade", greedy_config())
    return ServiceConfig(**overrides)


def make_controller(catalog, **overrides) -> MissionController:
    return MissionController(catalog, service_config(**overrides), rng=0)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            ServiceConfig(default_budget=0.0)
        with pytest.raises(ModelError):
            ServiceConfig(grace=-0.1)


class TestMissionController:
    def test_arrival_is_admitted_and_mapped(self, catalog):
        controller = make_controller(catalog)
        outcome = controller.handle(StringArrival(0))
        assert outcome.admitted == (0,)
        assert 0 in controller.active
        assert 0 in controller.placements
        assert outcome.worth > 0
        assert outcome.n_active == 1
        assert outcome.deadline_hit

    def test_duplicate_arrival_is_a_noop_with_note(self, catalog):
        controller = make_controller(catalog)
        controller.handle(StringArrival(0))
        outcome = controller.handle(StringArrival(0))
        assert outcome.note == "already active"
        assert outcome.admitted == ()

    def test_departure_removes_placement(self, catalog):
        controller = make_controller(catalog)
        controller.handle(StringArrival(0))
        outcome = controller.handle(StringDeparture(0))
        assert 0 not in controller.active
        assert 0 not in controller.placements
        assert outcome.n_active == 0
        inactive = controller.handle(StringDeparture(3))
        assert inactive.note == "not active"

    def test_out_of_range_ids_raise(self, catalog):
        controller = make_controller(catalog)
        with pytest.raises(ModelError):
            controller.handle(StringArrival(catalog.n_strings))
        with pytest.raises(ModelError):
            controller.activate([-1])

    def test_empty_active_fast_path(self, catalog):
        controller = make_controller(catalog)
        outcome = controller.handle(
            DriftStep(tuple([1.0] * catalog.n_strings))
        )
        assert outcome.worth == 0.0
        assert outcome.slackness == 1.0
        assert outcome.tier_used is None
        assert outcome.deadline_hit

    def test_machine_failure_keeps_feasible_and_avoids_machine(
        self, catalog
    ):
        controller = make_controller(catalog)
        controller.activate(range(4))
        controller.handle(DriftStep(tuple([1.0] * catalog.n_strings)))
        victim = next(iter(controller.placements.values()))[0]
        outcome = controller.handle(
            PlatformFault(MachineFailure(victim))
        )
        assert outcome.note == ""
        for machines in controller.placements.values():
            assert victim not in machines
        # whatever survived is genuinely feasible on the faulted model
        active = tuple(sorted(controller.active))
        if active:
            assert outcome.worth > 0

    def test_invalid_fault_is_ignored_with_note(self, catalog):
        controller = make_controller(catalog)
        controller.activate([0])
        outcome = controller.handle(
            PlatformFault(MachineFailure(catalog.n_machines + 3))
        )
        assert outcome.note.startswith("fault ignored:")

    def test_faults_cleared_resets_accumulation(self, catalog):
        controller = make_controller(catalog)
        controller.activate(range(3))
        controller.handle(PlatformFault(MachineFailure(0)))
        outcome = controller.handle(FaultsCleared())
        assert outcome.event_kind == "faults-cleared"
        # cleared platform: a fresh solve may use machine 0 again
        assert controller._fault_events == []

    def test_drift_accumulates_and_clips(self, catalog):
        controller = make_controller(catalog)
        factors = tuple([4.0] * catalog.n_strings)
        controller.handle(DriftStep(factors))
        controller.handle(DriftStep(factors))  # 16x, clipped to 10
        assert np.all(controller._drift <= 10.0)
        assert np.all(controller._drift >= 0.1)

    def test_drift_with_wrong_length_raises(self, catalog):
        controller = make_controller(catalog)
        with pytest.raises(ModelError):
            controller.handle(DriftStep((1.1,)))

    def test_carry_forward_floor_rescues_a_dead_cascade(
        self, catalog, monkeypatch
    ):
        controller = make_controller(catalog)
        controller.handle(StringArrival(0))
        controller.handle(StringArrival(1))
        assert controller.placements

        def dead(name):
            def broken(model, rng=None, **kwargs):
                raise RuntimeError(f"{name} crashed")

            return broken

        monkeypatch.setattr(cascade_mod, "get_heuristic", dead)
        outcome = controller.handle(
            DriftStep(tuple([1.0] * catalog.n_strings))
        )
        assert outcome.tier_used == "carry-forward"
        assert outcome.worth > 0
        assert outcome.deadline_hit

    def test_heavy_drift_under_critical_floor_sheds_low_worth(
        self, catalog
    ):
        controller = make_controller(catalog)
        controller.activate(range(catalog.n_strings))
        controller.handle(DriftStep(tuple([1.0] * catalog.n_strings)))
        controller.monitor.state = HealthState.CRITICAL
        floor = controller.monitor.policy.admission_slack_floor
        assert floor == 0.05
        outcome = controller.handle(
            DriftStep(tuple([8.0] * catalog.n_strings))
        )
        # the floor is restored (possibly by standing everything down)
        assert outcome.slackness >= floor - 1e-9 or outcome.n_active == 0
        assert outcome.shed  # an 8x surge cannot be free

    def test_admission_rejected_below_slack_floor(self, catalog):
        # NORMAL admits freely; any realistic slack (< 0.999) then
        # escalates to DEGRADED, whose floor sits above the standing
        # slack — so the next arrival must be rejected at the gate
        tiers = frozenset({"mwf", "tf"})
        policies = {
            HealthState.NORMAL: StatePolicy(tiers, 0.0),
            HealthState.DEGRADED: StatePolicy(tiers, 0.9999),
            HealthState.CRITICAL: StatePolicy(tiers, 0.9999),
        }
        controller = make_controller(
            catalog,
            health=HealthConfig(
                degraded_slack=0.999,
                critical_slack=0.0001,
                policies=policies,
            ),
        )
        controller.activate([0, 1])
        controller.handle(DriftStep(tuple([1.0] * catalog.n_strings)))
        assert controller.health is HealthState.DEGRADED
        outcome = controller.handle(StringArrival(4))
        assert outcome.rejected == (4,)
        assert 4 not in controller.active
        assert controller.n_rejected_total == 1

    def test_sequence_numbers_and_run_helper(self, catalog):
        controller = make_controller(catalog)
        events = [StringArrival(0), StringArrival(1), StringDeparture(0)]
        outcomes = controller.run(events)
        assert [o.seq for o in outcomes] == [1, 2, 3]
        assert [o.event_kind for o in outcomes] == [
            "arrival", "arrival", "departure",
        ]

    def test_apply_event_state_skips_arrivals_and_departures(
        self, catalog
    ):
        controller = make_controller(catalog)
        note = controller.apply_event_state(StringArrival(0))
        assert note == "skipped (restored from checkpoint)"
        assert not controller.active  # nothing queued, nothing admitted
        controller.apply_event_state(
            DriftStep(tuple([2.0] * catalog.n_strings))
        )
        assert np.all(controller._drift == 2.0)

    def test_restore_resumes_sequence_and_state(self, catalog):
        controller = make_controller(catalog)
        controller.handle(StringArrival(0))
        snapshot = controller.allocation_snapshot()
        resumed = make_controller(catalog)
        resumed.restore(controller.active, snapshot, n_served=1)
        assert resumed.active == controller.active
        assert resumed.placements == snapshot
        outcome = resumed.handle(
            DriftStep(tuple([1.0] * catalog.n_strings))
        )
        assert outcome.seq == 2  # continues after the restored request

    def test_restore_validates_service_ids(self, catalog):
        controller = make_controller(catalog)
        with pytest.raises(ModelError):
            controller.restore([catalog.n_strings + 1], {}, 0)

    def test_build_working_model_scales_drift_and_masks_faults(
        self, catalog
    ):
        active = (1, 3)
        drift = np.ones(catalog.n_strings)
        drift[3] = 2.0
        model = build_working_model(catalog, active, drift, [])
        assert model.n_strings == 2
        np.testing.assert_allclose(
            model.strings[0].comp_times, catalog.strings[1].comp_times
        )
        np.testing.assert_allclose(
            model.strings[1].comp_times,
            catalog.strings[3].comp_times * 2.0,
        )
        faulted = build_working_model(
            catalog, active, drift, [MachineFailure(0)]
        )
        assert faulted.n_machines == catalog.n_machines  # index-stable
