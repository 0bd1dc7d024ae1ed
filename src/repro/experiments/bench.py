"""Performance benchmark for the PSG evaluation core (``repro bench``).

Runs the paper's best-of-N-trials PSG protocol on a fixed workload and
emits one JSON perf record (``BENCH_<name>.json``) so the repository
accumulates a benchmark trajectory.  The record schema is
``repro-bench/1`` (documented in ``docs/performance.md``):

``schema / name / created``
    Record version tag, benchmark name, UTC timestamp.
``workload``
    Scenario, string/machine counts, and the generator seed.
``config``
    The GENITOR and trial knobs the run used (population, iteration
    bounds, trial count, worker count, profile-cache flag).
``wall_seconds / evaluations / evals_per_second``
    End-to-end wall time of the whole best-of-trials run, total fresh
    fitness evaluations across trials, and their ratio — the headline
    number the CI regression gate compares.
``best_fitness / trial_fitnesses``
    The elite (worth, slackness) and the per-trial list.
``profile_cache``
    Telemetry of the best trial's profile cache, including its hit
    rate.  ``null`` when the cache is disabled.

:func:`run_state_micro` is the companion micro-benchmark for the
feasibility kernel itself (``repro bench --name state-micro``): it
replays a realistic MWF allocation through
:class:`~repro.core.state.AllocationState`, timing raw ``try_add`` and
``snapshot``/``restore`` throughput.  The median over timing rounds is
kept, which is much more stable than best-of-N on shared runners.

:func:`compare_to_baseline` implements the CI gate: the run fails when
any of the record's gate metrics (``evals_per_second`` for the PSG
benchmarks; try_add and snapshot/restore ops/sec for ``state_micro``)
regresses more than ``max_regression`` (fractional) below a committed
baseline record, when the baseline belongs to another benchmark, or
when no gate metric could be compared at all.  Throughput baselines
are inherently machine-dependent; commit baselines produced on the CI
runner class.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..core.profile import ProfileCache
from ..io_utils.atomic import atomic_write_text
from ..core.state import AllocationState
from ..genitor import GenitorConfig
from ..genitor.stopping import StoppingRules
from ..heuristics import best_of_trials, psg, seeded_psg
from ..heuristics.mwf import mwf_order
from ..heuristics.ordering import allocate_sequence
from ..workload import get_scenario, generate_model

__all__ = [
    "run_bench",
    "run_state_micro",
    "compare_to_baseline",
    "save_record",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "repro-bench/1"

_HEURISTICS = {"psg": psg, "seeded-psg": seeded_psg}

#: Gate metrics per benchmark name (default: the PSG throughput metric).
_GATE_METRICS: dict[str, tuple[str, ...]] = {
    "state_micro": ("try_add_ops_per_sec", "snapshot_restore_ops_per_sec"),
    # Both fleet gate metrics are same-host ratios (K=max vs K=1), so
    # the committed baseline transfers across machine classes.
    "fleet": ("speedup", "worth_ratio"),
}
_DEFAULT_GATE_METRICS: tuple[str, ...] = ("evals_per_second",)


def run_bench(
    name: str = "psg",
    quick: bool = False,
    seed: int = 1_234,
    n_trials: int | None = None,
    n_workers: int | None = None,
) -> dict[str, Any]:
    """Run the PSG benchmark workload and return a ``repro-bench/1`` record.

    Parameters
    ----------
    name:
        ``"psg"`` or ``"seeded-psg"``.
    quick:
        Smoke-sized workload (25 strings, population 30, 2 trials,
        single worker) for CI; the default is the paper-scale protocol
        (50 strings, population 250, best of 4 trials) with one worker
        per trial.
    seed:
        Workload-generator and trial-stream seed (the run is
        deterministic given ``seed`` and the knobs).
    n_trials / n_workers:
        Override the preset trial and worker counts.
    """
    if name not in _HEURISTICS:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(_HEURISTICS)}"
        )
    if quick:
        n_strings, n_machines = 25, 4
        config = GenitorConfig(
            population_size=30,
            rules=StoppingRules(max_iterations=250, max_stale_iterations=120),
        )
        trials = 2 if n_trials is None else n_trials
        workers = 1 if n_workers is None else n_workers
    else:
        n_strings, n_machines = 50, 8
        config = GenitorConfig()  # the paper's: population 250, 5 000 iters
        trials = 4 if n_trials is None else n_trials
        workers = (
            min(os.cpu_count() or 1, trials)
            if n_workers is None
            else n_workers
        )
    params = get_scenario("1").scaled(
        n_strings=n_strings, n_machines=n_machines
    )
    model = generate_model(params, seed=seed)
    result = best_of_trials(
        _HEURISTICS[name],
        model,
        n_trials=trials,
        rng=seed,
        n_workers=workers,
        config=config,
    )
    stats = result.stats
    wall = float(stats["wall_seconds"])
    evaluations = int(stats["total_evaluations"])
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "workload": {
            "scenario": params.name,
            "n_strings": n_strings,
            "n_machines": n_machines,
            "seed": seed,
        },
        "config": {
            "population_size": config.population_size,
            "max_iterations": config.rules.max_iterations,
            "max_stale_iterations": config.rules.max_stale_iterations,
            "n_trials": trials,
            "n_workers": workers,
        },
        "wall_seconds": wall,
        "evaluations": evaluations,
        "evals_per_second": evaluations / wall if wall > 0.0 else 0.0,
        "best_fitness": {
            "worth": result.fitness.worth,
            "slackness": result.fitness.slackness,
        },
        "trial_fitnesses": stats["trial_fitnesses"],
        "trial_failures": stats["trial_failures"],
        "profile_cache": stats.get("profile_cache"),
    }


def _bench_micro_round(
    model: Any,
    pairs: list[tuple[int, Any]],
    snap_reps: int,
) -> tuple[float, float]:
    """One timing round: (try_add s/op, snap+restore s/op).

    The try_add half restores the empty state and replays every pair;
    the snapshot half takes ``snap_reps`` snapshot+restore pairs on the
    fully loaded state.

    The state gets its own :class:`ProfileCache`, warmed by a replay
    before timing starts, so the round measures the feasibility kernel
    rather than profile computation (every real search path — PSG, the
    sequential allocators — runs with the cache on).
    """
    state = AllocationState(model, profile_cache=ProfileCache())
    empty = state.snapshot()
    for string_id, machines in pairs:
        state.try_add(string_id, machines)  # warmup (fills caches)
    loaded = state.snapshot()
    state.restore(empty)
    t0 = time.perf_counter()
    for string_id, machines in pairs:
        state.try_add(string_id, machines)
    add_s = (time.perf_counter() - t0) / len(pairs)
    state.restore(loaded)
    t0 = time.perf_counter()
    for _ in range(snap_reps):
        snap = state.snapshot()
        state.restore(snap)
    return add_s, (time.perf_counter() - t0) / snap_reps


def run_state_micro(
    seed: int = 1_234,
    n_strings: int = 50,
    n_machines: int = 8,
    rounds: int = 9,
    snap_reps: int = 50,
) -> dict[str, Any]:
    """Micro-benchmark the feasibility kernel.

    Replays the MWF allocation of the paper-scale benchmark workload —
    a realistic mix of accepted mappings — through
    :class:`~repro.core.state.AllocationState`, timing ``try_add`` and
    ``snapshot``/``restore`` throughput (the gate metrics
    ``try_add_ops_per_sec`` and ``snapshot_restore_ops_per_sec``).
    Each is summarized by its median over ``rounds`` rounds.
    """
    params = get_scenario("1").scaled(
        n_strings=n_strings, n_machines=n_machines
    )
    model = generate_model(params, seed=seed)
    outcome = allocate_sequence(model, mwf_order(model))
    allocation = outcome.state.as_allocation()
    pairs = [
        (string_id, allocation.machines_for(string_id))
        for string_id in allocation.string_ids
    ]
    add_raw: list[float] = []
    snap_raw: list[float] = []
    for _ in range(rounds):
        add_s, snap_s = _bench_micro_round(model, pairs, snap_reps)
        add_raw.append(add_s)
        snap_raw.append(snap_s)
    add_med = statistics.median(add_raw)
    snap_med = statistics.median(snap_raw)
    return {
        "schema": BENCH_SCHEMA,
        "name": "state_micro",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": {
            "scenario": params.name,
            "n_strings": n_strings,
            "n_machines": n_machines,
            "seed": seed,
            "mapped_strings": len(pairs),
        },
        "config": {"rounds": rounds, "snap_reps": snap_reps},
        "try_add_ops_per_sec": 1.0 / add_med if add_med > 0 else 0.0,
        "try_add_us": add_med * 1e6,
        "snapshot_restore_ops_per_sec": (
            1.0 / snap_med if snap_med > 0 else 0.0
        ),
        "snapshot_restore_us": snap_med * 1e6,
    }


def compare_to_baseline(
    record: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.30,
) -> tuple[bool, str]:
    """CI gate: does ``record`` hold up against a committed ``baseline``?

    Returns ``(ok, message)``; ``ok`` is false when any gate metric for
    the record's benchmark name (``evals_per_second`` for the PSG
    benchmarks; ``try_add_ops_per_sec`` and
    ``snapshot_restore_ops_per_sec`` for ``state_micro``) fell more
    than ``max_regression`` (a fraction, e.g. ``0.30``) below the
    baseline's.  It is also false when the baseline names a different
    benchmark than the record, or when no gate metric is present in
    both, so a mismatched or empty comparison can never pass.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    name = str(record.get("name", ""))
    if "name" in baseline and baseline["name"] != name:
        return False, (
            f"baseline is for benchmark {baseline['name']!r}, "
            f"record is {name!r}; nothing compared"
        )
    metrics = _GATE_METRICS.get(name, _DEFAULT_GATE_METRICS)
    ok = True
    compared = 0
    parts: list[str] = []
    for metric in metrics:
        if metric not in baseline or metric not in record:
            # A metric added after the baseline was committed (or
            # dropped since) cannot gate; the re-baselining procedure
            # in docs/performance.md refreshes the committed record.
            parts.append(f"{metric} absent from record/baseline, skipped")
            continue
        compared += 1
        base_rate = float(baseline[metric])
        rate = float(record[metric])
        floor = base_rate * (1.0 - max_regression)
        delta = (rate - base_rate) / base_rate if base_rate > 0.0 else 0.0
        message = (
            f"{metric} {rate:,.0f} vs baseline {base_rate:,.0f} "
            f"({delta:+.1%}; floor {floor:,.0f} at -{max_regression:.0%})"
        )
        if base_rate <= 0.0:
            parts.append(
                message + " — baseline rate not positive, gate skipped"
            )
            continue
        if rate < floor:
            ok = False
        parts.append(message)
    if not compared:
        ok = False
        parts.append("no gate metric in both record and baseline")
    return ok, "; ".join(parts)


def save_record(record: dict[str, Any], path: str | Path) -> None:
    """Write one bench record as pretty-printed JSON (atomic, durable)."""
    atomic_write_text(path, json.dumps(record, indent=2) + "\n")
