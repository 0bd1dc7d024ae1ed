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
:class:`~repro.core.state.AllocationState` and times raw ``try_add``
and ``snapshot``/``restore`` throughput for every backend, reporting
the struct-of-arrays speedup over the record backend.  Timing rounds
are interleaved across backends and the median is kept, which is much
more stable than best-of-N on shared runners.

:func:`compare_to_baseline` implements the CI gate: the run fails when
any of the record's gate metrics (``evals_per_second`` for the PSG
benchmarks; try_add and snapshot/restore ops/sec for ``state_micro``)
regresses more than ``max_regression`` (fractional) below a committed
baseline record.  Throughput baselines are inherently
machine-dependent; commit baselines produced on the CI runner class.
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
from ..core.state import STATE_BACKENDS, AllocationState
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
    "state_micro": (
        "try_add_ops_per_sec",
        "snapshot_restore_ops_per_sec",
        "batch_try_add_ops_per_sec",
    ),
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


def _bench_state_backend(
    model: Any,
    pairs: list[tuple[int, Any]],
    backend: str,
    rounds: int,
    snap_reps: int,
) -> tuple[list[float], list[float]]:
    """One backend's raw samples: (try_add seconds/op, snap+restore s/op).

    Each try_add round restores the empty state and replays every pair;
    each snapshot round takes ``snap_reps`` snapshot+restore pairs on the
    fully loaded state.  Returns the per-round per-operation times so the
    caller can interleave rounds across backends and take medians.

    The state gets its own :class:`ProfileCache`, warmed by a replay
    before timing starts, so the rounds measure the feasibility kernel
    rather than profile computation (every real search path — PSG, the
    sequential allocators — runs with the cache on).
    """
    state = AllocationState(
        model, backend=backend, profile_cache=ProfileCache()
    )
    empty = state.snapshot()
    for string_id, machines in pairs:
        state.try_add(string_id, machines)  # warmup (fills caches)
    loaded = state.snapshot()
    add_samples: list[float] = []
    snap_samples: list[float] = []
    for _ in range(rounds):
        state.restore(empty)
        t0 = time.perf_counter()
        for string_id, machines in pairs:
            state.try_add(string_id, machines)
        add_samples.append((time.perf_counter() - t0) / len(pairs))
        state.restore(loaded)
        t0 = time.perf_counter()
        for _ in range(snap_reps):
            snap = state.snapshot()
            state.restore(snap)
        snap_samples.append((time.perf_counter() - t0) / snap_reps)
    return add_samples, snap_samples


def _bench_batch_micro(
    model: Any,
    pairs: list[tuple[int, Any]],
    n_lanes: int,
    rounds: int,
) -> list[float]:
    """Per-lane-op times of the batched try_add kernel.

    Replays the same accepted (string, machines) pairs as the scalar
    rounds, but across ``n_lanes`` identical lanes of one
    :class:`~repro.core.state_batch.BatchSoaState` — each
    ``try_add_batch`` call performs one feasibility analysis per lane,
    so one replay does ``len(pairs) * n_lanes`` lane-ops.  The per-op
    median against the scalar ``try_add_ops_per_sec`` is exactly the
    dispatch amortization the batched population evaluator buys.
    """
    from ..core.state_batch import BatchSoaState

    cache = ProfileCache()
    state = BatchSoaState(model, n_lanes, profile_cache=cache)
    lanes = list(range(n_lanes))
    profs = {
        string_id: state.get_profile(string_id, machines)
        for string_id, machines in pairs
    }  # warmed once: the scalar rounds also time with a hot cache
    samples: list[float] = []
    for _ in range(rounds):
        for b in lanes:
            state.reset_lane(b)
        t0 = time.perf_counter()
        for string_id, _machines in pairs:
            state.try_add_batch(
                lanes, [string_id] * n_lanes, [profs[string_id]] * n_lanes
            )
        samples.append(
            (time.perf_counter() - t0) / (len(pairs) * n_lanes)
        )
    return samples


def run_state_micro(
    seed: int = 1_234,
    n_strings: int = 50,
    n_machines: int = 8,
    rounds: int = 9,
    snap_reps: int = 50,
    backends: tuple[str, ...] | None = None,
    batch_lanes: int = 32,
) -> dict[str, Any]:
    """Micro-benchmark the feasibility kernel (``AllocationState``).

    Replays the MWF allocation of the paper-scale benchmark workload —
    a realistic mix of accepted mappings — through each requested state
    backend, timing ``try_add`` and ``snapshot``/``restore`` throughput.
    Rounds are interleaved across backends and summarized by the median,
    so a CPU-frequency wobble hits all backends alike instead of biasing
    whichever ran last.  The top-level gate metrics
    (``try_add_ops_per_sec``, ``snapshot_restore_ops_per_sec``) are the
    default backend's (struct-of-arrays); the per-backend numbers and
    the soa-over-record speedups ride along for inspection.  A third
    gate metric, ``batch_try_add_ops_per_sec``, times the same replay
    across ``batch_lanes`` lanes of the batched kernel and reports
    per-lane-op throughput — the dispatch amortization the population
    evaluator relies on.
    """
    if backends is None:
        # Time only the real implementations: the "sanitize" verifier
        # runs both backends internally and would distort the medians.
        backends = ("soa", "record")
    for backend in backends:
        if backend not in STATE_BACKENDS:
            raise ValueError(
                f"unknown state backend {backend!r}; choose from "
                f"{STATE_BACKENDS}"
            )
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
    add_raw: dict[str, list[float]] = {b: [] for b in backends}
    snap_raw: dict[str, list[float]] = {b: [] for b in backends}
    batch_raw: list[float] = []
    # One interleaved round across every backend per outer iteration
    # (the batched kernel participates in the interleave for the same
    # frequency-wobble fairness).
    for _ in range(rounds):
        for backend in backends:
            add_s, snap_s = _bench_state_backend(
                model, pairs, backend, rounds=1, snap_reps=snap_reps
            )
            add_raw[backend] += add_s
            snap_raw[backend] += snap_s
        batch_raw += _bench_batch_micro(
            model, pairs, n_lanes=batch_lanes, rounds=1
        )
    per_backend: dict[str, dict[str, float]] = {}
    for backend in backends:
        add_med = statistics.median(add_raw[backend])
        snap_med = statistics.median(snap_raw[backend])
        per_backend[backend] = {
            "try_add_us": add_med * 1e6,
            "try_add_ops_per_sec": 1.0 / add_med if add_med > 0 else 0.0,
            "snapshot_restore_us": snap_med * 1e6,
            "snapshot_restore_ops_per_sec": (
                1.0 / snap_med if snap_med > 0 else 0.0
            ),
        }
    batch_med = statistics.median(batch_raw)
    gate_backend = backends[0]
    speedup: dict[str, float] | None = None
    if "soa" in per_backend and "record" in per_backend:
        speedup = {
            "try_add": (
                per_backend["record"]["try_add_us"]
                / per_backend["soa"]["try_add_us"]
            ),
            "snapshot_restore": (
                per_backend["record"]["snapshot_restore_us"]
                / per_backend["soa"]["snapshot_restore_us"]
            ),
        }
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
        "config": {
            "rounds": rounds,
            "snap_reps": snap_reps,
            "backends": list(backends),
            "gate_backend": gate_backend,
            "batch_lanes": batch_lanes,
        },
        "try_add_ops_per_sec": per_backend[gate_backend][
            "try_add_ops_per_sec"
        ],
        "snapshot_restore_ops_per_sec": per_backend[gate_backend][
            "snapshot_restore_ops_per_sec"
        ],
        "batch_try_add_ops_per_sec": (
            1.0 / batch_med if batch_med > 0 else 0.0
        ),
        "batch_try_add_us": batch_med * 1e6,
        "backends": per_backend,
        "speedup": speedup,
        "batch_speedup_over_scalar": (
            per_backend[gate_backend]["try_add_us"] / (batch_med * 1e6)
            if batch_med > 0
            else 0.0
        ),
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
    baseline's.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    metrics = _GATE_METRICS.get(
        str(record.get("name", "")), _DEFAULT_GATE_METRICS
    )
    ok = True
    parts: list[str] = []
    for metric in metrics:
        if metric not in baseline or metric not in record:
            # A metric added after the baseline was committed (or
            # dropped since) cannot gate; the re-baselining procedure
            # in docs/performance.md refreshes the committed record.
            parts.append(f"{metric} absent from record/baseline, skipped")
            continue
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
    return ok, "; ".join(parts)


def save_record(record: dict[str, Any], path: str | Path) -> None:
    """Write one bench record as pretty-printed JSON (atomic, durable)."""
    atomic_write_text(path, json.dumps(record, indent=2) + "\n")
