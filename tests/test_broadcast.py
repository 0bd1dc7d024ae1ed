"""Tests for the token registry that ships read-only data to pool workers
(repro.parallel.broadcast): tokens resolve in the parent and in workers,
and neither the start method nor an in-parent replay changes what
``best_of_trials`` returns."""

import multiprocessing as mp
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics.psg import _trial_worker, best_of_trials, seeded_psg
import repro.parallel.broadcast as broadcast
from repro.parallel import (
    ChaosPolicy,
    SharedModelGroup,
    get_shared,
    get_worker_context,
)
from repro.workload import SCENARIO_1, generate_model


@pytest.fixture
def model():
    params = SCENARIO_1.scaled(n_strings=10, n_machines=4)
    return generate_model(params, seed=9)


def _tiny_config():
    return GenitorConfig(
        population_size=16,
        rules=StoppingRules(max_iterations=30, max_stale_iterations=15),
    )


def _assert_same_best(got, want):
    assert got.fitness == want.fitness
    assert got.order == want.order
    assert got.stats["trial_fitnesses"] == want.stats["trial_fitnesses"]


class TestSharedModelLifecycle:
    def test_inherit_token_resolves_in_process(self, model):
        with SharedModelGroup([model]) as shared:
            (token,) = shared.tokens
            resolved, cache = get_worker_context(token)
            assert resolved is model
            # the per-token cache is persistent across resolutions
            assert get_worker_context(token)[1] is cache
        with pytest.raises(KeyError):
            get_worker_context(token)

    def test_not_reentrant(self, model):
        shared = SharedModelGroup([model])
        with shared:
            with pytest.raises(RuntimeError):
                shared.__enter__()

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            get_worker_context("repro-nonexistent")

    def test_unknown_transport_rejected(self, model):
        # The transport knob is gone: there is one way to reach workers.
        with pytest.raises(TypeError):
            SharedModelGroup([model], transport="shm")

    def test_initializer_installs_every_entry(self, model):
        """What each worker runs: the initializer makes every payload
        resolvable, in order, and exiting drops them again."""
        shared = SharedModelGroup([model, "fleet workload"])
        assert len(set(shared.tokens)) == 2
        with pytest.raises(KeyError):
            get_shared(shared.tokens[0])
        try:
            shared.initializer(*shared.initargs)
            assert get_shared(shared.tokens[0]) is model
            assert get_shared(shared.tokens[1]) == "fleet workload"
        finally:
            shared.__exit__(None, None, None)
        for token in shared.tokens:
            with pytest.raises(KeyError):
                get_shared(token)


class TestLeakRegistry:
    """Regression: registry entries never outlive their group, so a
    long-lived parent does not accumulate models or profile caches."""

    def test_normal_exit_leaves_registry_empty(self, model):
        before = (dict(broadcast._SHARED), dict(broadcast._CACHES))
        with SharedModelGroup([model, model]) as shared:
            for token in shared.tokens:
                get_worker_context(token)
            assert set(shared.tokens) <= set(broadcast._CACHES)
        with pytest.raises(ValueError):
            with SharedModelGroup([model]) as failing:
                get_worker_context(failing.tokens[0])
                raise ValueError("task failed")
        assert (broadcast._SHARED, broadcast._CACHES) == before


class TestWorkerAttach:
    def test_trial_worker_resolves_token(self, model):
        cfg = _tiny_config()
        ref = seeded_psg(model, rng=np.random.default_rng(3), config=cfg)
        with SharedModelGroup([model]) as shared:
            via_token = _trial_worker(
                seeded_psg, shared.tokens[0], 3, {"config": cfg}
            )
        assert via_token.fitness == ref.fitness
        assert via_token.order == ref.order

    def test_pickled_initargs_run_trial_identically(self, model):
        """The ``spawn`` path in-process: the initargs cross a pickle
        round trip, and a trial on the unpickled model returns the same
        elite as on the original."""
        cfg = _tiny_config()
        ref = seeded_psg(model, rng=np.random.default_rng(3), config=cfg)
        shared = SharedModelGroup([model])
        try:
            shared.initializer(*pickle.loads(pickle.dumps(shared.initargs)))
            assert get_worker_context(shared.tokens[0])[0] is not model
            got = _trial_worker(
                seeded_psg, shared.tokens[0], 3, {"config": cfg}
            )
        finally:
            shared.__exit__(None, None, None)
        assert got.fitness == ref.fitness
        assert got.order == ref.order


class TestBestOfTrialsSharing:
    def test_parallel_sharing_bit_identical(self, model):
        cfg = _tiny_config()
        serial = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=1, config=cfg
        )
        shared = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=2, config=cfg
        )
        _assert_same_best(shared, serial)


@pytest.fixture
def spawn_start_method():
    if "spawn" not in mp.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    previous = mp.get_start_method()
    mp.set_start_method("spawn", force=True)
    try:
        yield
    finally:
        mp.set_start_method(previous, force=True)


class TestPoolTransport:
    """The model reaches workers through the pool initializer, so every
    start method and the in-parent replay return the serial result — and
    no shared-memory segment is ever created."""

    def test_spawn_pool_matches_serial(
        self, model, spawn_start_method, monkeypatch
    ):
        created = []

        def no_shm(*args, **kwargs):
            created.append(kwargs)
            raise OSError("best_of_trials must not create shared memory")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
        cfg = _tiny_config()
        serial = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=1, config=cfg
        )
        pooled = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=2, config=cfg
        )
        assert created == []
        _assert_same_best(pooled, serial)

    def test_quarantined_trials_replay_in_parent(self, model):
        cfg = _tiny_config()
        serial = best_of_trials(
            seeded_psg, model, 3, rng=4, n_workers=1, config=cfg
        )
        replayed = best_of_trials(
            seeded_psg,
            model,
            3,
            rng=4,
            n_workers=2,
            chaos=ChaosPolicy(kill_rate=1.0, seed=3),
            config=cfg,
        )
        assert replayed.stats["supervisor"]["replayed_in_process"] == 3
        _assert_same_best(replayed, serial)
