"""Bit-identity property tests for the batched population-evaluation
kernel (repro.core.state_batch): the batched projection and the
commit-free probe must agree bit-for-bit with the scalar backends."""

import numpy as np
import pytest

from repro.core import AllocationState
from repro.core.profile import ProfileCache
from repro.core.state import (
    get_default_state_backend,
    set_default_state_backend,
)
from repro.core.state_batch import (
    BatchEvaluator,
    BatchSoaState,
    probe_try_add,
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


class TestProbeTryAdd:
    """The commit-free probe must return exactly the scalar try_add
    decision and rejection fields, without perturbing the base state."""

    @pytest.mark.parametrize("seed", [41, 42])
    def test_probe_matches_scalar(self, seed):
        params = SCENARIO_1.scaled(n_strings=20, n_machines=4)
        model = generate_model(params, seed=seed)
        rng = np.random.default_rng(seed)
        state = AllocationState(model, backend="soa")
        for k in [int(x) for x in rng.permutation(len(model.strings))][:8]:
            state.try_add(k, imr_map_string(state, k))
        candidates = []
        for sid in range(len(model.strings)):
            if sid in state:
                continue
            m = rng.integers(
                0, model.n_machines, size=model.strings[sid].n_apps
            )
            candidates.append((sid, m))
        buf_before = state._buf.copy()
        util_before = state._util.copy()
        results = probe_try_add(state, candidates)
        np.testing.assert_array_equal(state._buf, buf_before)
        np.testing.assert_array_equal(state._util, util_before)
        checked_rejections = 0
        for (sid, m), (ok, rejection) in zip(candidates, results):
            snap = state.snapshot()
            assert state.try_add(sid, m) == ok
            if not ok:
                _assert_same_rejection(rejection, state.last_rejection)
                checked_rejections += 1
            else:
                assert rejection is None
            state.restore(snap)
        assert checked_rejections > 0

    def test_empty_candidates(self, small_model):
        state = AllocationState(small_model, backend="soa")
        assert probe_try_add(state, []) == []


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
        """Under ``soa`` (like every non-sanitize backend) PSG scores the
        initial population through the batched kernel; ``sanitize``
        takes the scalar path."""
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
            set_default_state_backend("soa")
            on = seeded_psg(model, config=config, rng=7)
            set_default_state_backend("sanitize")
            off = seeded_psg(model, config=config, rng=7)
        finally:
            set_default_state_backend(previous)
        assert on.fitness == off.fitness
        assert on.order == off.order
        assert on.mapped_ids == off.mapped_ids
        assert on.stats["evaluations"] == off.stats["evaluations"]

    def test_local_search_batch_on_off_identical(self):
        from repro.heuristics.local_search import local_search
        from repro.heuristics.mwf import most_worth_first

        params = SCENARIO_2.scaled(n_strings=24, n_machines=3)
        model = generate_model(params, seed=72)
        previous = get_default_state_backend()
        set_default_state_backend("soa")  # batched repair needs SoA
        try:
            initial = most_worth_first(model)
            on = local_search(model, initial, use_batch=True)
            off = local_search(model, initial, use_batch=False)
        finally:
            set_default_state_backend(previous)
        assert on.fitness == off.fitness
        assert on.mapped_ids == off.mapped_ids
        assert on.stats == off.stats


class TestValidation:
    def test_bad_lane_count(self, small_model):
        with pytest.raises(ValueError):
            BatchSoaState(small_model, 0)

    def test_bad_max_lanes(self, small_model):
        with pytest.raises(ValueError):
            project_batch(small_model, [[0]], max_lanes=0)
