"""The benchmark's three workloads.

Each workload has the same shape:

``setup()``
    Per-repetition set-up (inputs regenerated from the seed, services
    constructed); the benchmark reports its median as part of
    ``setup_s``.
``run(ctx)``
    The timed phase of one repetition.  Returns a :class:`Rep`.
``check(ctx, rep)``
    Output checks, run outside the timed phase.  Returns one message
    per failed check.

All repetitions of one run do the same work, fixed by ``--seed``, so
their outputs must agree exactly.  A repetition is a fixed sequence of
units (planning trials, served events, fleet solves) and is timed per
unit.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import workload as wl
from repro.core.allocation import Allocation
from repro.core.feasibility import analyze
from repro.fleet import partition_fleet, solve_fleet
from repro.fleet.solver import validate_result
from repro.genitor import GenitorConfig
from repro.genitor.stopping import StoppingRules
from repro.heuristics import best_of_trials, seeded_psg
from repro.service import soak
from repro.service.controller import ServiceConfig
from repro.service.durable import DurableMissionController
from repro.service.events import generate_scenario
from repro.workload import fleet as fleet_workload
from tracing import cache_metrics


@dataclass
class Rep:
    """What one timed repetition produced."""

    #: wall-clock seconds of each unit of the timed phase, in order
    latencies: list[float]
    worths: list[float]
    slacks: list[float]
    attempted: int
    failed: int
    #: per-layer metrics read from program-reported stats and results
    layer: dict[str, float] = field(default_factory=dict)
    #: what every repetition of the run must reproduce exactly
    fingerprint: Any = None


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th seed derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class PlanPsg:
    """Offline Seeded-PSG planning at the paper's GA settings.

    The model is fixed (scenario 1 scaled to 50 strings / 8 machines at
    generator seed 1234, the model ``repro bench`` uses); the run seed
    drives the trial seeds.  Each repetition is the paper's best-of-
    trials protocol, run serially: three single-trial ``best_of_trials``
    calls, every trial to a fixed iteration count with the stale and
    convergence stops off.  One trial's time varies by about 15% with
    its GA seed; the sum over three trials varies less.
    """

    name = "plan-psg"
    MODEL_SEED = 1_234
    ITERATIONS = 100
    TRIALS = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.params = wl.get_scenario("1").scaled(n_strings=50, n_machines=8)
        rules = StoppingRules(
            max_iterations=self.ITERATIONS,
            max_stale_iterations=self.ITERATIONS + 1,
            check_convergence_every=self.ITERATIONS + 1,
        )
        self.config = GenitorConfig(population_size=250, bias=1.6, rules=rules)

    def setup(self) -> dict[str, Any]:
        return {"model": wl.generate_model(self.params, seed=self.MODEL_SEED)}

    def run(self, ctx: dict[str, Any]) -> Rep:
        latencies = []
        trials = []
        for k in range(self.TRIALS):
            start = time.perf_counter()
            try:
                trials.append(
                    best_of_trials(
                        seeded_psg,
                        ctx["model"],
                        n_trials=1,
                        rng=sub_seed(self.seed, k),
                        config=self.config,
                    )
                )
            except Exception as exc:  # a raising trial is a failed operation
                ctx["error"] = repr(exc)
                return Rep([], [], [], self.TRIALS, self.TRIALS)
            latencies.append(time.perf_counter() - start)
        result = max(trials, key=lambda r: r.fitness)
        ctx["result"] = result
        fitness = result.fitness
        return Rep(
            latencies, [fitness.worth], [fitness.slackness], self.TRIALS, 0,
            cache_metrics([t.stats for t in trials]),
            fingerprint=(
                [t.fitness.as_tuple() for t in trials], tuple(result.order)
            ),
        )

    def check(self, ctx: dict[str, Any], rep: Rep) -> list[str]:
        if "error" in ctx:
            return [f"trial raised {ctx['error']}"]
        result = ctx["result"]
        failures = []
        report = analyze(result.allocation)
        if not report.feasible:
            failures.append(f"elite infeasible: {report.violations[:3]}")
        if not _close(result.allocation.total_worth(), result.fitness.worth):
            failures.append("elite allocation worth differs from its fitness")
        if failures:
            rep.failed = max(rep.failed, 1)
        return failures

    def close(self, ctx: dict[str, Any]) -> None:
        pass


class ServeEvents:
    """The durable online controller serving the seeded soak stream.

    The catalog (10 services / 6 machines, 5 active at start) and the
    event stream are the ``SoakConfig`` defaults; the run seed drives
    the controller's per-request solver stream.  Every request gets a
    budget no tier's wall-clock stop reaches, with ``grace=0``, so each
    request does the same work on every run.
    """

    name = "serve-events"
    N_EVENTS = 150
    BUDGET_S = 3_600.0

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.soak_config = soak.SoakConfig(n_events=self.N_EVENTS)
        self.service_config = ServiceConfig(
            default_budget=self.BUDGET_S, grace=0.0
        )

    def _inputs(self) -> tuple[Any, list[int], tuple[Any, ...]]:
        config = self.soak_config
        catalog = soak.build_catalog(config)
        initial = soak.initial_services(config, catalog)
        events = generate_scenario(
            catalog, config.n_events, rng=config.seed + 1, config=config.events
        )
        return catalog, initial, events

    def _controller(
        self, catalog: Any, initial: list[int], journal: str
    ) -> DurableMissionController:
        return DurableMissionController(
            catalog,
            self.service_config,
            rng=self.seed,
            journal_dir=journal,
            initial_active=initial,
        )

    def setup(self) -> dict[str, Any]:
        catalog, initial, events = self._inputs()
        journal = tempfile.mkdtemp(prefix="journal-", dir=self.out_dir)
        return {
            "catalog": catalog,
            "initial": initial,
            "events": events,
            "journal": journal,
            "controller": self._controller(catalog, initial, journal),
        }

    def run(self, ctx: dict[str, Any]) -> Rep:
        controller = ctx["controller"]
        tracer = ctx.get("tracer")
        outcomes = []
        latencies = []
        errors = []
        for event in ctx["events"]:
            if tracer is not None:
                tracer.request = controller.applied + 1
            t0 = time.perf_counter()
            try:
                outcomes.append(controller.handle(event))
            except Exception as exc:  # a raising request is a failure
                errors.append(repr(exc))
            latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.request = None
        ctx["outcomes"] = outcomes
        ctx["errors"] = errors
        ran = [o for o in outcomes if o.tier_used is not None]
        won = [o for o in ran if o.tier_used != "carry-forward"]
        layer = {
            "service.cascade_win_frac": len(won) / len(ran) if ran else 0.0,
            "service.journal_bytes": Path(controller.store.wal_path)
            .stat().st_size,
            "service.admitted": sum(len(o.admitted) for o in outcomes),
            "service.rejected": sum(len(o.rejected) for o in outcomes),
            "service.shed": sum(len(o.shed) for o in outcomes),
        }
        missed = sum(1 for o in outcomes if not o.deadline_hit)
        return Rep(
            latencies,
            [o.worth for o in outcomes],
            [o.slackness for o in outcomes],
            len(ctx["events"]),
            len(errors) + missed,
            layer,
            fingerprint=[(o.worth, o.tier_used) for o in outcomes],
        )

    def check(self, ctx: dict[str, Any], rep: Rep) -> list[str]:
        failures = [f"handle raised {e}" for e in ctx["errors"]]
        live = ctx["controller"]
        snapshot = live.allocation_snapshot()
        # the working model (drift + faults) is only reachable through
        # the inner controller
        inner = live._inner
        active = tuple(sorted(inner.active))
        live.close()
        reopened = self._controller(
            ctx["catalog"], ctx["initial"], ctx["journal"]
        )
        try:
            if reopened.allocation_snapshot() != snapshot:
                failures.append("reopened journal disagrees with live state")
        finally:
            reopened.close()
        if active:
            model = inner._working_model(active)
            allocation = Allocation(
                model,
                {
                    local: np.asarray(snapshot[sid], dtype=np.int64)
                    for local, sid in enumerate(active)
                    if sid in snapshot
                },
            )
            report = analyze(allocation)
            if not report.feasible:
                failures.append(
                    f"final placements infeasible: {report.violations[:3]}"
                )
        if failures:
            rep.failed = max(rep.failed, 1)
        return failures

    def close(self, ctx: dict[str, Any]) -> None:
        ctx["controller"].close()
        shutil.rmtree(ctx["journal"], ignore_errors=True)


class FleetLarge:
    """Sharded solve of the ``fleet-large`` scenario.

    1 000 machines / 10 000 strings generated from the run seed, K=32
    shards, the deterministic ``skip-ahead`` solver, two pool workers
    and two rebalance rounds.  Every repetition solves the same fleet.
    """

    name = "fleet-large"
    N_SHARDS = 32
    N_WORKERS = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.scenario = fleet_workload.get_fleet_scenario("fleet-large")

    def setup(self) -> dict[str, Any]:
        return {
            "workload": fleet_workload.generate_fleet(
                self.scenario, seed=self.seed
            )
        }

    def run(self, ctx: dict[str, Any]) -> Rep:
        start = time.perf_counter()
        result = solve_fleet(
            ctx["workload"],
            self.N_SHARDS,
            solver="skip-ahead",
            seed=self.seed,
            n_workers=self.N_WORKERS,
            rebalance_rounds=2,
        )
        wall = time.perf_counter() - start
        ctx["result"] = result
        pool = result.stats.get("pool", {})
        reb = result.stats.get("rebalance", {})
        shard_s = [s.runtime_seconds for s in result.shard_solutions]
        lost = (
            pool.get("tasks", 0) - pool.get("completed", 0)
            - pool.get("task_errors", 0)
        )
        layer = {
            "fleet.migrated_frac": (
                reb["migrated"] / reb["attempted"] if reb.get("attempted")
                else 0.0
            ),
            "fleet.pool_overflow": reb.get("pool_overflow", 0),
            "fleet.shard_max_s": max(shard_s),
            "fleet.shard_straggler_ratio": max(shard_s)
            / statistics.fmean(shard_s),
            "parallel.retries": pool.get("retries", 0),
            "parallel.worker_deaths": pool.get("worker_deaths", 0),
            "parallel.lost_tasks": lost,
            "parallel.busy_s": sum(shard_s),
            "parallel.workers": self.N_WORKERS,
        }
        return Rep(
            [wall],
            [result.total_worth],
            [result.min_slackness],
            result.n_shards,
            lost + pool.get("quarantined", 0),
            layer,
            fingerprint=result.signature(),
        )

    def check(self, ctx: dict[str, Any], rep: Rep) -> list[str]:
        workload, result = ctx["workload"], ctx["result"]
        partition = partition_fleet(workload, self.N_SHARDS, seed=self.seed)
        try:
            validate_result(workload, partition, result, deep=True)
        except Exception as exc:  # the validator's verdict is the check
            rep.failed += 1
            return [f"fleet validation failed: {exc!r}"]
        return []

    def close(self, ctx: dict[str, Any]) -> None:
        pass


WORKLOADS = {w.name: w for w in (PlanPsg, ServeEvents, FleetLarge)}
