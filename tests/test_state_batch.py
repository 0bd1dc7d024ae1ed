"""Bit-identity property tests for the batched population-evaluation
kernel (repro.core.state_batch): the batched projection must agree
bit-for-bit with the scalar kernel."""

import numpy as np
import pytest

from repro.core.profile import ProfileCache
from repro.core.state import (
    get_default_state_backend,
    set_default_state_backend,
)
from repro.core.state_batch import (
    BatchEvaluator,
    BatchSoaState,
    project_batch,
)
from repro.heuristics.imr import imr_map_string
from repro.heuristics.ordering import allocate_sequence
from repro.workload import SCENARIO_1, SCENARIO_2, SCENARIO_3, generate_model


def _assert_same_rejection(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.stage == b.stage
    assert a.kind == b.kind
    assert a.where == b.where
    assert a.value == b.value
    assert a.bound == b.bound


def _random_orderings(model, rng, n=24):
    """Full permutations plus shared-prefix variants and an empty lane."""
    N = len(model.strings)
    orderings = [
        [int(x) for x in rng.permutation(N)] for _ in range(n)
    ]
    base = orderings[0]
    for cut in (3, 9):
        tail = [x for x in range(N) if x not in base[:cut]]
        rng.shuffle(tail)
        orderings.append(base[:cut] + tail)
    orderings.append([])
    return orderings


class TestBatchVsScalarEquivalence:
    """Randomized equivalence walks: every lane's fitness, mapped
    prefix, failure point, and rejection fields must match the scalar
    projection bit-for-bit — including early-exited lanes that went
    inactive while the rest of the batch kept stepping."""

    @pytest.mark.parametrize("scenario,seed,ns,nm", [
        (SCENARIO_1, 31, 16, 4),
        (SCENARIO_2, 32, 20, 3),
        (SCENARIO_3, 33, 24, 3),
    ])
    def test_projection_walk(self, scenario, seed, ns, nm):
        params = scenario.scaled(n_strings=ns, n_machines=nm)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed)
        orderings = _random_orderings(model, rng)
        outcomes = project_batch(model, orderings, max_lanes=7)
        n_failed = 0
        for out, order in zip(outcomes, orderings):
            scalar = allocate_sequence(model, order)
            assert out.fitness == scalar.fitness()
            assert out.mapped_ids == scalar.mapped_ids
            assert out.failed_id == scalar.failed_id
            assert out.complete == scalar.complete
            _assert_same_rejection(out.rejection, scalar.state.last_rejection)
            if out.failed_id is not None:
                n_failed += 1
        # the walk must exercise both early-exit lanes and completions
        assert 0 < n_failed < len(orderings)

    def test_batch_evaluator_matches_fitness_fn(self):
        params = SCENARIO_2.scaled(n_strings=15, n_machines=3)
        model = generate_model(params, seed=35)
        rng = np.random.default_rng(35)
        orderings = _random_orderings(model, rng, n=8)
        evaluator = BatchEvaluator(model, profile_cache=ProfileCache())
        fits = evaluator(orderings)
        assert fits == [
            allocate_sequence(model, o).fitness() for o in orderings
        ]


class TestLaneReset:
    def test_reset_lane(self, small_model):
        batch = BatchSoaState(small_model, 1)
        assignment = imr_map_string(batch.lane_view(0), 0)
        prof = batch.get_profile(0, assignment)
        assert batch.try_add_batch([0], [0], [prof])[0][0]
        assert batch.lane_mapped_count(0) == 1
        batch.reset_lane(0)
        assert batch.lane_mapped_count(0) == 0
        assert batch.lane_worth(0) == 0.0
        np.testing.assert_array_equal(
            batch._buf[0], np.zeros_like(batch._buf[0])
        )


class TestEngineIntegration:
    """The batched evaluator plugged into the search drivers must leave
    every search result bit-identical to the scalar path."""

    def test_psg_batch_on_off_identical(self):
        """PSG scores its initial population through the batched kernel;
        under ``sanitize`` every lane is also re-projected through the
        scalar kernel (raising on any difference), and the run's result
        must not change."""
        from repro.genitor import GenitorConfig
        from repro.genitor.stopping import StoppingRules
        from repro.heuristics.psg import seeded_psg

        params = SCENARIO_1.scaled(n_strings=18, n_machines=4)
        model = generate_model(params, seed=71)
        config = GenitorConfig(
            population_size=30,
            rules=StoppingRules(max_iterations=80, max_stale_iterations=50),
        )
        previous = get_default_state_backend()
        try:
            set_default_state_backend("record")
            on = seeded_psg(model, config=config, rng=7)
            set_default_state_backend("sanitize")
            checked = seeded_psg(model, config=config, rng=7)
        finally:
            set_default_state_backend(previous)
        assert on.fitness == checked.fitness
        assert on.order == checked.order
        assert on.mapped_ids == checked.mapped_ids
        assert on.stats["evaluations"] == checked.stats["evaluations"]


class TestValidation:
    def test_bad_lane_count(self, small_model):
        with pytest.raises(ValueError):
            BatchSoaState(small_model, 0)

    def test_bad_max_lanes(self, small_model):
        with pytest.raises(ValueError):
            project_batch(small_model, [[0]], max_lanes=0)
