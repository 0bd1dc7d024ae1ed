"""Tests for the zero-copy model broadcast (repro.parallel.broadcast):
transport roundtrips must be bit-identical, and neither sharing nor
its pickle fallback may change heuristic results."""

import errno
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics.psg import _trial_worker, best_of_trials, seeded_psg
import repro.parallel.broadcast as broadcast
from repro.parallel import (
    SharedModel,
    SharedModelGroup,
    active_segment_names,
    get_worker_context,
)
from repro.parallel.broadcast import (
    _init_worker_shm,
    _pack_model,
    _unpack_model,
    _WORKER_SHM,
    _WORKER_STATE,
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


def _assert_models_identical(a, b):
    np.testing.assert_array_equal(a.network.bandwidth, b.network.bandwidth)
    np.testing.assert_array_equal(
        a.network.inv_bandwidth, b.network.inv_bandwidth
    )
    assert a.network.avg_inv_bandwidth == b.network.avg_inv_bandwidth
    assert len(a.strings) == len(b.strings)
    for s, t in zip(a.strings, b.strings):
        assert s.string_id == t.string_id
        assert s.worth == t.worth
        assert s.period == t.period
        assert s.max_latency == t.max_latency
        assert s.name == t.name
        np.testing.assert_array_equal(s.comp_times, t.comp_times)
        np.testing.assert_array_equal(s.cpu_utils, t.cpu_utils)
        np.testing.assert_array_equal(s.output_sizes, t.output_sizes)
        np.testing.assert_array_equal(s.avg_comp_times, t.avg_comp_times)
        np.testing.assert_array_equal(s.avg_cpu_utils, t.avg_cpu_utils)
        np.testing.assert_array_equal(s.work, t.work)
    assert [m.name for m in a.machines] == [m.name for m in b.machines]


class TestSharedModelLifecycle:
    def test_inherit_token_resolves_in_process(self, model):
        with SharedModel(model, transport="inherit") as shared:
            resolved, cache = get_worker_context(shared.token)
            assert resolved is model
            # the per-token cache is persistent across resolutions
            assert get_worker_context(shared.token)[1] is cache
        with pytest.raises(KeyError):
            get_worker_context(shared.token)

    def test_shm_pack_unpack_roundtrip(self, model):
        with SharedModel(model, transport="shm") as shared:
            rebuilt = _unpack_model(shared._shm, shared._meta)
            _assert_models_identical(model, rebuilt)
            # the rebuilt arrays are read-only views into shared memory
            with pytest.raises(ValueError):
                rebuilt.network.bandwidth[0, 0] = 1.0
            with pytest.raises(ValueError):
                rebuilt.strings[0].comp_times[0, 0] = 1.0

    def test_shm_block_unlinked_on_exit(self, model):
        from multiprocessing import shared_memory

        shared = SharedModel(model, transport="shm")
        with shared:
            name = shared._shm.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_not_reentrant(self, model):
        shared = SharedModel(model, transport="inherit")
        with shared:
            with pytest.raises(RuntimeError):
                shared.__enter__()

    def test_unknown_transport_rejected(self, model):
        with pytest.raises(ValueError):
            SharedModel(model, transport="mmap")

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            get_worker_context("repro-nonexistent")

    def test_initializer_only_for_shm(self, model):
        inherit = SharedModel(model, transport="inherit")
        assert inherit.initializer is None
        assert inherit.initargs == ()
        with SharedModel(model, transport="shm") as shm:
            assert shm.initializer is _init_worker_shm
            assert shm.initargs[0] == shm.token


class TestLeakRegistry:
    """Regression: shm segments must never outlive their owner.

    The parent-side leak registry guarantees that a segment created by
    ``SharedModel(transport="shm")`` is unlinked even when the owning
    context manager never exits (worker crash, KeyboardInterrupt, a
    supervisor tearing down a broken pool mid-broadcast)."""

    def test_normal_exit_leaves_registry_empty(self, model):
        with SharedModel(model, transport="shm"):
            assert len(active_segment_names()) == 1
        assert active_segment_names() == ()

    def test_abandoned_segment_is_tracked_and_reclaimed(self, model):
        from multiprocessing import shared_memory

        shared = SharedModel(model, transport="shm")
        shared.__enter__()  # simulate a crash: __exit__ never runs
        name = shared._shm.name
        assert name in active_segment_names()

        broadcast._cleanup_parent_segments()  # the atexit crash path
        assert active_segment_names() == ()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # late __exit__ after cleanup must not raise (already unlinked)
        shared.__exit__(None, None, None)

    def test_inherit_transport_registers_nothing(self, model):
        with SharedModel(model, transport="inherit"):
            assert active_segment_names() == ()


class TestWorkerAttach:
    def test_init_worker_shm_in_process(self, model):
        """The initializer path, exercised in-process: a trial on the
        attached model returns the same elite as on the original."""
        kwargs = {"config": _tiny_config()}
        ref = _trial_worker(seeded_psg, model, 3, kwargs)
        with SharedModel(model, transport="shm") as shared:
            _init_worker_shm(shared.token, shared._shm.name, shared._meta)
            try:
                attached, _ = get_worker_context(shared.token)
                _assert_models_identical(model, attached)
                got = _trial_worker(seeded_psg, shared.token, 3, kwargs)
                assert got.fitness == ref.fitness
                assert got.order == ref.order
            finally:
                _WORKER_STATE.pop(shared.token, None)
                shm = _WORKER_SHM.pop(shared.token, None)
                if shm is not None:
                    shm.close()

    def test_trial_worker_resolves_token(self, model):
        cfg = _tiny_config()
        ref = _trial_worker(seeded_psg, model, 3, {"config": cfg})
        with SharedModel(model, transport="inherit") as shared:
            via_token = _trial_worker(seeded_psg, shared.token, 3,
                                      {"config": cfg})
        assert via_token.fitness == ref.fitness
        assert via_token.order == ref.order


class TestBestOfTrialsSharing:
    def test_parallel_sharing_bit_identical(self, model):
        cfg = _tiny_config()
        serial = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=1, config=cfg
        )
        shared = best_of_trials(
            seeded_psg, model, 2, rng=4, n_workers=2, config=cfg
        )
        assert shared.fitness == serial.fitness
        assert shared.order == serial.order
        assert (
            shared.stats["trial_fitnesses"]
            == serial.stats["trial_fitnesses"]
        )
        assert serial.stats["model_transport"] == "none"
        assert shared.stats["model_transport"] in ("inherit", "shm")


def test_broadcast_setup_failure_falls_back_to_pickle(model, monkeypatch):
    """When broadcast setup raises (here: a full ``/dev/shm``),
    ``best_of_trials`` ships the model pickled and returns what the
    serial run returns."""

    def enospc(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(SharedModel, "__enter__", enospc)
    monkeypatch.setattr(SharedModelGroup, "__enter__", enospc)

    cfg = _tiny_config()
    serial = best_of_trials(
        seeded_psg, model, 2, rng=4, n_workers=1, config=cfg
    )
    pooled = best_of_trials(
        seeded_psg, model, 2, rng=4, n_workers=2, config=cfg
    )
    assert pooled.fitness == serial.fitness
    assert pooled.order == serial.order
    assert pooled.stats["trial_fitnesses"] == serial.stats["trial_fitnesses"]
    assert pooled.stats["model_transport"] == "pickle"


@pytest.mark.skipif(
    "spawn" not in mp.get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_spawn_pool_shm_roundtrip(model):
    """Full cross-process shm path: a spawned worker attaches the block
    and runs a trial identically to the parent."""
    kwargs = {"config": _tiny_config()}
    ref = _trial_worker(seeded_psg, model, 3, kwargs)
    ctx = mp.get_context("spawn")
    with SharedModel(model, transport="shm") as shared:
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=ctx,
            initializer=shared.initializer,
            initargs=shared.initargs,
        ) as pool:
            got = pool.submit(
                _trial_worker, seeded_psg, shared.token, 3, kwargs
            ).result()
    assert got.fitness == ref.fitness
    assert got.order == ref.order
