"""Unit tests for the LP upper bound (repro.lp.upper_bound)."""

import itertools
import math

import numpy as np
import pytest

from repro.core import Allocation, SystemModel
from repro.core.feasibility import analyze
from repro.core.metrics import evaluate
from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics import (
    most_worth_first,
    mwf_order,
    mwf_with_local_search,
    psg,
    seeded_psg,
    tightest_first,
)
from repro.heuristics.ordering import allocate_sequence
from repro.lp import upper_bound
from repro.workload import SCENARIO_1, SCENARIO_2, SCENARIO_3, generate_model

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


def exact_over_orderings(model):
    """Best ``allocate_sequence`` fitness over every string ordering.

    Returns ``(fitness, allocation)`` of the best ordering.
    """
    best = None
    for order in itertools.permutations(range(model.n_strings)):
        state = allocate_sequence(model, order).state
        fitness = state.fitness()
        if best is None or fitness > best[0]:
            best = (fitness, state.as_allocation())
    return best


def exact_over_mappings(model, complete):
    """Best :func:`evaluate` over every ``analyze``-feasible allocation.

    Each string is either unmapped (partial objective only) or takes one
    of its ``M**n_k`` machine tuples.  Returns ``None`` when no
    allocation is feasible.  An allocation whose worth is below the best
    found so far cannot win in ``Fitness`` order, so it is not analyzed.
    """
    options = []
    for s in model.strings:
        tuples = list(itertools.product(range(model.n_machines), repeat=s.n_apps))
        options.append(tuples if complete else [*tuples, None])
    n_allocations = math.prod(len(o) for o in options)
    assert n_allocations <= 5_000, n_allocations
    best = None
    for combo in itertools.product(*options):
        mapped = {k: m for k, m in enumerate(combo) if m is not None}
        worth = sum(model.strings[k].worth for k in mapped)
        if best is not None and worth < best.worth:
            continue
        allocation = Allocation(model, mapped)
        if analyze(allocation).feasible:
            fitness = evaluate(allocation)
            if best is None or fitness > best:
                best = fitness
    return best


_TINY_PARTIAL = dict(
    n_strings=5, n_machines=2, apps_per_string=(1, 2), period_mu=(1.0, 1.5)
)
_TINY_COMPLETE = dict(n_strings=3, n_machines=3, apps_per_string=(1, 2))
_ORACLE_INSTANCES = [
    ("partial", SCENARIO_1.scaled(**_TINY_PARTIAL), seed) for seed in (1, 2, 3)
] + [
    ("partial", SCENARIO_2.scaled(**_TINY_PARTIAL), seed) for seed in (1, 2, 3)
] + [
    ("complete", SCENARIO_3.scaled(**_TINY_COMPLETE), seed) for seed in (1, 2, 3)
]
#: An instance whose latency bounds are tight enough that the kernel's
#: stage-2a latency check rejects a string on MWF's path.
_TIGHT_LATENCY = SCENARIO_1.scaled(
    **_TINY_PARTIAL, latency_mu=(1.0, 1.5), name="scenario1-tight-latency"
)
_ORACLE_INSTANCES.append(("partial", _TIGHT_LATENCY, 4))
_SMALL_GA = GenitorConfig(
    population_size=8,
    rules=StoppingRules(max_iterations=100, max_stale_iterations=40),
)


class TestExactOracleChain:
    """Heuristic <= exact optimum <= LP bound on exhaustively solvable
    instances.

    Fitnesses from the ``AllocationState`` kernel are compared with each
    other, and allocations are re-scored with :func:`evaluate` before
    they meet the exact-over-mappings optimum, so every comparison is
    between numbers summed the same way.
    """

    @pytest.fixture(scope="class")
    def chains(self):
        rows = {}
        for objective, params, seed in _ORACLE_INSTANCES:
            model = generate_model(params, seed=seed)
            ordering = [
                most_worth_first(model),
                tightest_first(model),
                psg(model, config=_SMALL_GA, rng=seed),
                seeded_psg(model, config=_SMALL_GA, rng=seed),
            ]
            rows[(params.name, seed)] = dict(
                objective=objective,
                model=model,
                ordering=ordering,
                local=mwf_with_local_search(model),
                exact_orderings=exact_over_orderings(model),
                exact=exact_over_mappings(model, complete=False),
                exact_complete=(
                    exact_over_mappings(model, complete=True)
                    if objective == "complete" else None
                ),
                bound=upper_bound(model, objective=objective).value,
            )
        return rows

    @pytest.mark.parametrize(
        "key",
        [(params.name, seed) for _, params, seed in _ORACLE_INSTANCES],
        ids=lambda key: f"{key[0]}-seed{key[1]}",
    )
    def test_chain(self, chains, key):
        row = chains[key]
        heuristics = [*row["ordering"], row["local"]]
        for result in heuristics:
            assert analyze(result.allocation).feasible, result.name
        best_order, best_order_allocation = row["exact_orderings"]
        for result in row["ordering"]:
            assert result.fitness <= best_order, result.name
        assert evaluate(best_order_allocation) <= row["exact"]
        for result in heuristics:
            assert evaluate(result.allocation) <= row["exact"], result.name
        if row["objective"] == "partial":
            assert row["exact"].worth <= row["bound"] + 1e-6
        else:
            exact = row["exact_complete"]
            assert exact is not None
            n_strings = row["model"].n_strings
            for result in heuristics:
                if len(result.mapped_ids) == n_strings:
                    slackness = evaluate(result.allocation).slackness
                    assert slackness <= exact.slackness, result.name
            assert exact.slackness <= row["bound"] + 1e-6

    def test_latency_bound_binds(self, chains):
        model = chains[(_TIGHT_LATENCY.name, 4)]["model"]
        state = allocate_sequence(model, mwf_order(model)).state
        assert state.last_rejection is not None
        assert state.last_rejection.kind == "latency"

    def test_not_vacuous(self, chains):
        rows = chains.values()
        assert any(
            evaluate(result.allocation) < row["exact"]
            for row in rows
            for result in (*row["ordering"], row["local"])
        )
        assert any(
            row["exact"].worth < row["bound"] - 1e-6
            for row in rows
            if row["objective"] == "partial"
        )
        assert any(
            row["exact_complete"].slackness < row["bound"] - 1e-6
            for row in rows
            if row["objective"] == "complete"
        )


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
