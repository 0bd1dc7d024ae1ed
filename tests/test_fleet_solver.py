"""Tests for the parallel shard solver, composition, and conservation
invariants (repro.fleet.solver)."""

from __future__ import annotations

import functools
import multiprocessing as mp
import weakref
from multiprocessing import shared_memory

import pytest

import repro.fleet.solver as fleet_solver

from repro.core.exceptions import ModelError
from repro.fleet import (
    FleetResult,
    partition_fleet,
    solve_fleet,
    solve_shard,
)
from repro.fleet.solver import SHARD_SOLVERS, compose, validate_result
from repro.genitor import GenitorConfig, StoppingRules
from repro.heuristics import seeded_psg
from repro.parallel import ChaosPolicy
from repro.workload.fleet import FLEET_BENCH, FLEET_SMOKE, generate_fleet

SEED = 21

#: Small Seeded PSG budget for the psg shard solver (the paper's
#: population and iteration bounds make it the slowest tier-1 test).
TINY_GA = GenitorConfig(
    population_size=8,
    rules=StoppingRules(max_iterations=25, max_stale_iterations=12),
)


@pytest.fixture(scope="module")
def workload():
    return generate_fleet(FLEET_SMOKE, seed=SEED)


@pytest.fixture(scope="module")
def result(workload):
    return solve_fleet(workload, 2, seed=SEED, n_workers=1)


class TestSolveShard:
    def test_shard_solution_uses_global_ids(self, workload):
        part = partition_fleet(workload, 3, seed=SEED)
        shard = part.shards[1]
        sol = solve_shard(workload, shard, seed=SEED)
        assert sol.shard_index == 1
        machine_set = set(shard.machine_ids)
        for gid, machines in sol.placements.items():
            assert gid in set(shard.string_ids)
            assert set(machines) <= machine_set
            assert len(machines) == workload.strings[gid].n_apps
        assert set(sol.rejected) <= set(shard.string_ids)
        assert set(sol.rejected).isdisjoint(sol.placements)

    def test_worth_matches_placements(self, workload):
        part = partition_fleet(workload, 2, seed=SEED)
        sol = solve_shard(workload, part.shards[0], seed=SEED)
        assert sol.worth == pytest.approx(
            sum(workload.strings[g].worth for g in sol.placements)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"n_workers": -2},
            {"rebalance_rounds": -1},
            {"rebalance_targets": -1},
            {"rebalance_migrants": -5},
        ],
    )
    def test_invalid_arguments_rejected(self, workload, kwargs):
        (name,) = kwargs
        with pytest.raises(ModelError, match=name):
            solve_fleet(workload, 2, seed=SEED, **kwargs)

    @pytest.mark.parametrize("n_shards", [0, -1, FLEET_SMOKE.n_zones + 1])
    def test_shard_count_rejected_before_worker_default(
        self, workload, n_shards
    ):
        # The n_workers default is derived from n_shards; a bad shard
        # count must be reported as such, not as a bad worker count.
        with pytest.raises(ModelError, match="1 <= n_shards <= n_zones"):
            solve_fleet(workload, n_shards, seed=SEED)

    def test_zero_rebalance_arguments_allowed(self, workload):
        out = solve_fleet(
            workload, 2, seed=SEED, n_workers=1,
            rebalance_targets=0, rebalance_migrants=0,
        )
        assert out.stats["rebalance"]["attempted"] == 0

    def test_unknown_solver_rejected(self, workload):
        part = partition_fleet(workload, 2, seed=SEED)
        with pytest.raises(ModelError, match="unknown shard solver"):
            solve_shard(workload, part.shards[0], solver="anneal")
        with pytest.raises(ModelError, match="unknown shard solver"):
            solve_fleet(workload, 2, solver="anneal")


class TestComposition:
    def test_validates_clean(self, workload, result):
        part = partition_fleet(workload, 2, seed=SEED)
        validate_result(workload, part, result, deep=True)

    def test_every_string_exactly_once(self, workload, result):
        placed = set(result.placements)
        rejected = set(result.rejected)
        assert placed | rejected == set(range(workload.n_strings))
        assert placed.isdisjoint(rejected)

    def test_total_worth_is_sum_of_shards(self, result):
        assert result.total_worth == pytest.approx(
            sum(s.worth for s in result.shard_solutions)
        )

    def test_placements_respect_shard_machines(self, workload, result):
        part = partition_fleet(workload, 2, seed=SEED)
        machines_of = {
            s.index: set(s.machine_ids) for s in part.shards
        }
        for shard_index, machines in result.placements.values():
            assert set(machines) <= machines_of[shard_index]

    def test_double_placement_detected(self, workload, result):
        part = partition_fleet(workload, 2, seed=SEED)
        sols = list(result.shard_solutions)
        gid, placement = next(iter(sols[0].placements.items()))
        clash = dict(sols[1].placements)
        clash[gid] = placement  # illegally claim shard 0's string
        bad = sols[1].__class__(
            shard_index=sols[1].shard_index,
            placements=clash,
            rejected=sols[1].rejected,
            worth=sols[1].worth,
            slackness=sols[1].slackness,
            runtime_seconds=sols[1].runtime_seconds,
            solver=sols[1].solver,
        )
        with pytest.raises(ModelError, match="placed by two shards"):
            compose(
                part, [sols[0], bad], solver="skip-ahead", seed=SEED,
                runtime_seconds=0.0,
            )

    def test_validate_rejects_lost_string(self, workload, result):
        part = partition_fleet(workload, 2, seed=SEED)
        dropped = FleetResult(
            n_shards=result.n_shards,
            solver=result.solver,
            seed=result.seed,
            placements=result.placements,
            rejected=result.rejected[1:],  # lose one rejection
            total_worth=result.total_worth,
            min_slackness=result.min_slackness,
            shard_solutions=result.shard_solutions,
            runtime_seconds=result.runtime_seconds,
        )
        with pytest.raises(ModelError, match="exactly once"):
            validate_result(workload, part, dropped)

    def test_validate_rejects_worth_drift(self, workload, result):
        part = partition_fleet(workload, 2, seed=SEED)
        drifted = FleetResult(
            n_shards=result.n_shards,
            solver=result.solver,
            seed=result.seed,
            placements=result.placements,
            rejected=result.rejected,
            total_worth=result.total_worth + 7.0,
            min_slackness=result.min_slackness,
            shard_solutions=result.shard_solutions,
            runtime_seconds=result.runtime_seconds,
        )
        with pytest.raises(ModelError, match="worth not conserved"):
            validate_result(workload, part, drifted)


class TestReproducibility:
    def test_same_seed_same_signature(self, workload, result):
        again = solve_fleet(workload, 2, seed=SEED, n_workers=1)
        assert again.signature() == result.signature()
        assert again.total_worth == result.total_worth

    def test_signature_stable_across_worker_counts(self, workload, result):
        pooled = solve_fleet(workload, 2, seed=SEED, n_workers=2)
        assert pooled.signature() == result.signature()
        assert pooled.total_worth == result.total_worth

    def test_different_seed_changes_composition(self, workload, result):
        other = solve_fleet(workload, 2, seed=SEED + 1, n_workers=1)
        assert other.signature() != result.signature()

    @pytest.mark.parametrize("solver", SHARD_SOLVERS)
    def test_all_solvers_compose_validly(self, workload, solver, monkeypatch):
        # Inline (n_workers=1), so the patch reaches the shard solve.
        monkeypatch.setattr(
            fleet_solver,
            "seeded_psg",
            functools.partial(seeded_psg, config=TINY_GA),
        )
        out = solve_fleet(
            workload, 2, solver=solver, seed=SEED, n_workers=1
        )
        part = partition_fleet(workload, 2, seed=SEED)
        validate_result(workload, part, out)

    def test_monolithic_k1_has_no_migrations(self, workload):
        mono = solve_fleet(workload, 1, seed=SEED, n_workers=1)
        assert mono.n_shards == 1
        reb = mono.stats.get("rebalance")
        assert reb is None or reb["migrated"] == 0


class TestChaos:
    def test_chaotic_pool_composes_identically(self, workload, result):
        chaos = ChaosPolicy(
            kill_rate=0.3, delay_rate=0.1, corrupt_rate=0.3, seed=5
        )
        chaotic = solve_fleet(
            workload, 2, seed=SEED, n_workers=2, chaos=chaos
        )
        assert chaotic.signature() == result.signature()
        pool = chaotic.stats.get("pool", {})
        # Conservation: every shard task accounted for, none lost.
        if pool:
            assert pool["tasks"] == pool["completed"] + pool["task_errors"]


class TestShardMaterialization:
    """Each shard's dense model is built inside the task that solves it:
    pooled, the parent builds none; inline, one is alive at a time."""

    def test_pooled_parent_materializes_nothing(
        self, workload, result, monkeypatch
    ):
        parent_calls = []
        build = fleet_solver.materialize_model

        def counting(*args, **kwargs):
            # Forked workers inherit this wrapper but append to their
            # own copy of the list, so it only counts parent calls.
            parent_calls.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(fleet_solver, "materialize_model", counting)
        pooled = solve_fleet(workload, 2, seed=SEED, n_workers=2)
        assert parent_calls == []
        assert pooled.stats["pool"]["replayed_in_process"] == 0
        assert pooled.signature() == result.signature()

    def test_inline_streams_one_shard_model_at_a_time(
        self, workload, monkeypatch
    ):
        # SystemModel has no weakref slot; its bandwidth matrix lives
        # exactly as long as the model does, so it stands in for it.
        alive_at_build = []
        refs = []
        build = fleet_solver.materialize_model

        def tracking(*args, **kwargs):
            alive_at_build.append(sum(r() is not None for r in refs))
            model = build(*args, **kwargs)
            refs.append(weakref.ref(model.network.bandwidth))
            return model

        monkeypatch.setattr(fleet_solver, "materialize_model", tracking)
        solve_fleet(
            workload, 4, seed=SEED, n_workers=1, rebalance_rounds=0
        )
        assert len(refs) == 4
        assert alive_at_build == [0, 0, 0, 0]
        assert all(r() is None for r in refs)


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
    """The workload reaches workers through the pool initializer, so
    every start method and the in-parent replay compose the inline
    signature — and no shared-memory segment is ever created."""

    def test_spawn_pool_composes_inline_result(
        self, workload, result, spawn_start_method, monkeypatch
    ):
        created = []

        def no_shm(*args, **kwargs):
            created.append(kwargs)
            raise OSError("the fleet path must not create shared memory")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
        pooled = solve_fleet(workload, 2, seed=SEED, n_workers=2)
        assert created == []
        assert pooled.signature() == result.signature()
        assert pooled.total_worth == result.total_worth

    def test_quarantined_shards_replay_in_parent(self, workload, result):
        replayed = solve_fleet(
            workload,
            2,
            seed=SEED,
            n_workers=2,
            chaos=ChaosPolicy(kill_rate=1.0, seed=3),
        )
        assert replayed.stats["pool"]["replayed_in_process"] == 2
        assert replayed.signature() == result.signature()
        assert replayed.total_worth == result.total_worth


class TestFleetBenchPins:
    """The 100-machine fleet-bench workload (seed 42), solved inline at
    K = 1, 2, 4 and 8: the placements and worth must not change, and so
    neither does the cost of sharding in worth (K=8 / K=1)."""

    #: n_shards -> (signature, total_worth, n_placed)
    PINS = {
        1: ("dbfd5a0796eed6edd5bb3b1db0ccb897cae6e1f97380d9dedd6dbf53577942e8",
            55014.0, 789),
        2: ("bb576a690a059f1af6597af99b9bcddd7e520586d4647ac43f3736fbe1c2a75d",
            59657.0, 689),
        4: ("2b9d22315573bb661e023273d0ac6cf445b020f027b83f9ee2a7921cc0580516",
            53239.0, 634),
        8: ("5b2addc5d67368f2d2e38b08876d65cef26717938d81bd74310eede56d376875",
            54547.0, 637),
    }

    @pytest.fixture(scope="class")
    def bench_workload(self):
        return generate_fleet(FLEET_BENCH, seed=42)

    @pytest.mark.parametrize("n_shards", sorted(PINS))
    def test_placements_pinned(self, bench_workload, n_shards):
        out = solve_fleet(bench_workload, n_shards, seed=42, n_workers=1)
        assert (out.signature(), out.total_worth, out.n_placed) == (
            self.PINS[n_shards]
        )
