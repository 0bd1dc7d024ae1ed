"""Multi-run experiment engine (Sections 6 and 8).

The paper evaluates each heuristic on 100 independently sampled
workloads per scenario and reports the mean (with 95% confidence
intervals) of total worth (scenarios 1–2) or system slackness
(scenario 3), next to the LP upper bound.  For the evolutionary
heuristics, each run reports the best of four independent trials.

:func:`run_experiment` reproduces that protocol at a configurable scale:
the paper's exact sizes (100 runs, population 250, 5 000 iterations,
4 trials) take hours in pure Python, so :class:`ExperimentScale`
provides documented presets — ``smoke`` (seconds, used by the benchmark
suite), ``default`` (minutes), and ``paper`` (the full protocol).  Every
random quantity derives from ``base_seed + run_index``, so any scale is
exactly reproducible and heuristics are compared *paired* on identical
workload instances.

The engine is crash-safe for multi-hour runs:

* parallel collection runs on a :class:`~repro.parallel.SupervisedPool`
  — worker deaths and pool collapses are retried and, when exhausted,
  the run is replayed deterministically in-process, so a crashed worker
  costs a retry rather than the run; a run whose own code raises
  becomes a :class:`RunFailure` record instead of discarding the
  finished runs;
* an optional per-run timeout (POSIX ``SIGALRM``) turns a hung run
  into a recorded failure;
* an optional JSON checkpoint (:class:`ExperimentCheckpoint`, on the
  generic :mod:`repro.io_utils.checkpoint` layer) persists every
  completed run, so a killed experiment resumes from its last
  completed record instead of starting over.
"""

from __future__ import annotations

import json
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from ..analysis.stats import ConfidenceInterval, mean_ci
from ..core.exceptions import ModelError
from ..core.numeric import isclose
from ..core.profile import ProfileCache
from ..genitor import GenitorConfig, StoppingRules
from ..heuristics import GA_HEURISTICS, best_of_trials, get_heuristic
from ..io_utils.atomic import atomic_write_text
from ..io_utils.checkpoint import fingerprint_payload
from ..parallel import ChaosPolicy, SupervisedPool, Task, TaskOutcome
from ..workload import ScenarioParameters, generate_model

__all__ = [
    "ExperimentCheckpoint",
    "ExperimentScale",
    "SCALES",
    "ExperimentConfig",
    "RunRecord",
    "RunFailure",
    "RunTimeoutError",
    "ExperimentOutcome",
    "config_fingerprint",
    "record_from_dict",
    "record_to_dict",
    "run_experiment",
]



@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time.

    ``size_factor`` shrinks the *hardware and workload together* —
    machines and strings scale proportionally, so a reduced instance
    keeps the paper's load character (scenario 1 still saturates
    capacity, scenario 3 still allocates completely).  GA parameters
    apply to PSG/Seeded PSG only.
    """

    name: str
    n_runs: int
    size_factor: float
    population_size: int
    max_iterations: int
    max_stale_iterations: int
    n_trials: int

    def __post_init__(self) -> None:
        if not 0 < self.size_factor <= 1:
            raise ModelError(
                f"size_factor must be in (0, 1], got {self.size_factor}"
            )
        if self.n_runs < 1:
            raise ModelError("n_runs must be >= 1")

    def apply(self, scenario: ScenarioParameters) -> ScenarioParameters:
        """Scenario with machines and strings scaled by ``size_factor``."""
        if isclose(self.size_factor, 1.0):
            return scenario
        n_machines = max(2, round(scenario.n_machines * self.size_factor))
        n_strings = max(2, round(scenario.n_strings * self.size_factor))
        return scenario.scaled(n_strings=n_strings, n_machines=n_machines)

    def genitor_config(self, bias: float = 1.6) -> GenitorConfig:
        return GenitorConfig(
            population_size=self.population_size,
            bias=bias,
            rules=StoppingRules(
                max_iterations=self.max_iterations,
                max_stale_iterations=self.max_stale_iterations,
            ),
        )


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        n_runs=3,
        size_factor=1 / 3,  # 4 machines; 50 strings (scen 1-2), 8 (scen 3)
        population_size=16,
        max_iterations=80,
        max_stale_iterations=40,
        n_trials=1,
    ),
    "default": ExperimentScale(
        name="default",
        n_runs=5,
        size_factor=1.0,
        population_size=50,
        max_iterations=400,
        max_stale_iterations=150,
        n_trials=2,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_runs=100,
        size_factor=1.0,
        population_size=250,
        max_iterations=5_000,
        max_stale_iterations=300,
        n_trials=4,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a scenario, a heuristic set, and a scale."""

    scenario: ScenarioParameters
    heuristics: tuple[str, ...]
    scale: ExperimentScale
    metric: str = "worth"  # or "slackness"
    compute_ub: bool = True
    ub_objective: str = "partial"  # or "complete"
    base_seed: int = 1_000
    bias: float = 1.6

    def __post_init__(self) -> None:
        if self.metric not in ("worth", "slackness"):
            raise ModelError(f"unknown metric {self.metric!r}")
        if self.ub_objective not in ("partial", "complete"):
            raise ModelError(f"unknown ub_objective {self.ub_objective!r}")

    def effective_scenario(self) -> ScenarioParameters:
        return self.scale.apply(self.scenario)


@dataclass
class RunRecord:
    """Per-run measurements: one row per heuristic plus the UB."""

    run_index: int
    seed: int
    #: heuristic -> (worth, slackness, runtime seconds, strings mapped)
    results: dict[str, tuple[float, float, float, int]]
    ub_value: float | None = None
    ub_runtime: float | None = None

    def metric_of(self, name: str, metric: str) -> float:
        worth, slack, _rt, _n = self.results[name]
        return worth if metric == "worth" else slack


@dataclass(frozen=True)
class RunFailure:
    """One run that crashed, hung past its timeout, or was lost with a
    broken worker pool.  Failed runs are retried on a checkpoint resume."""

    run_index: int
    seed: int
    error: str


_CHECKPOINT_SCHEMA = "repro/experiment-checkpoint-v1"


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable hash of everything that defines the run protocol."""
    payload = {
        "scenario": asdict(config.scenario),
        "heuristics": list(config.heuristics),
        "scale": asdict(config.scale),
        "metric": config.metric,
        "compute_ub": config.compute_ub,
        "ub_objective": config.ub_objective,
        "base_seed": config.base_seed,
        "bias": config.bias,
    }
    return fingerprint_payload(payload)


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    """Encode one run record as JSON-compatible data."""
    return {
        "run_index": record.run_index,
        "seed": record.seed,
        "results": {
            name: list(values) for name, values in record.results.items()
        },
        "ub_value": record.ub_value,
        "ub_runtime": record.ub_runtime,
    }


def record_from_dict(data: dict[str, Any]) -> RunRecord:
    """Decode :func:`record_to_dict` output."""
    return RunRecord(
        run_index=int(data["run_index"]),
        seed=int(data["seed"]),
        results={
            name: (
                float(v[0]), float(v[1]), float(v[2]), int(v[3])
            )
            for name, v in data["results"].items()
        },
        ub_value=(
            None if data.get("ub_value") is None else float(data["ub_value"])
        ),
        ub_runtime=(
            None
            if data.get("ub_runtime") is None
            else float(data["ub_runtime"])
        ),
    )


class ExperimentCheckpoint:
    """Multi-run experiment checkpoint bound to one configuration.

    A JSON document of :class:`RunRecord`s plus the schema and the
    configuration fingerprint (:func:`config_fingerprint`).  Use
    :meth:`open` to create-or-resume; every :meth:`add` rewrites the
    file through :func:`~repro.io_utils.atomic.atomic_write_text`, so
    neither a ``kill -9`` mid-flush nor a power loss right after one
    can corrupt or lose the finished runs.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        records: list[RunRecord] | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.records: list[RunRecord] = list(records or [])

    @classmethod
    def open(
        cls, path: str | Path, config: ExperimentConfig
    ) -> "ExperimentCheckpoint":
        """Load an existing checkpoint, or start a fresh (empty) one.

        Raises :class:`ModelError` when the file exists but was written
        by a different configuration or is not a checkpoint document.
        Records beyond the configured run count are dropped.
        """
        path = Path(path)
        fingerprint = config_fingerprint(config)
        if not path.exists():
            return cls(path, fingerprint)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelError(
                f"cannot read experiment checkpoint {path}: {exc}"
            ) from exc
        if data.get("schema") != _CHECKPOINT_SCHEMA:
            raise ModelError(
                f"{path} is not a {_CHECKPOINT_SCHEMA} document "
                f"(schema={data.get('schema')!r})"
            )
        if data.get("fingerprint") != fingerprint:
            raise ModelError(
                f"checkpoint {path} was written by a different experiment "
                "configuration; delete it (or point --checkpoint "
                "elsewhere) to start over"
            )
        n_runs = config.scale.n_runs
        records = [
            record_from_dict(r)
            for r in data.get("records", [])
            if int(r["run_index"]) < n_runs
        ]
        return cls(path, fingerprint, records)

    @property
    def completed_indices(self) -> frozenset[int]:
        return frozenset(r.run_index for r in self.records)

    def add(self, record: RunRecord) -> None:
        """Record one completed run and flush to disk atomically."""
        self.records.append(record)
        self.flush()

    def flush(self) -> None:
        payload = {
            "schema": _CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "records": [
                record_to_dict(r)
                for r in sorted(self.records, key=lambda r: r.run_index)
            ],
        }
        atomic_write_text(self.path, json.dumps(payload))


class RunTimeoutError(RuntimeError):
    """A run exceeded the per-run wall-clock budget."""


@contextmanager
def _run_deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`RunTimeoutError` if the body runs past ``seconds``.

    Implemented with ``SIGALRM``, so it interrupts hung pure-Python
    loops (a long-running C call is only interrupted on return).  A
    no-op when ``seconds`` is None or on platforms without ``SIGALRM``
    (Windows).  Signal handlers can only be installed from the main
    thread — ``signal.signal`` raises ``ValueError`` anywhere else — so
    off the main thread the body runs *without* a timeout and a
    :class:`RuntimeWarning` is emitted instead of crashing the run.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    if seconds <= 0:
        raise ModelError(f"run timeout must be positive, got {seconds}")
    if threading.current_thread() is not threading.main_thread():
        warnings.warn(
            "per-run timeout requires the main thread (signal.signal "
            "raises ValueError elsewhere); running without a timeout",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise RunTimeoutError(
            f"run exceeded the {seconds:g}s per-run timeout"
        )

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:
        # Belt and braces: some embeddings report a "main thread" that
        # still cannot install handlers (e.g. non-main interpreters).
        warnings.warn(
            "signal.signal rejected the SIGALRM handler; running "
            "without a per-run timeout",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class ExperimentOutcome:
    """All runs of one experiment, with aggregation helpers."""

    config: ExperimentConfig
    records: list[RunRecord] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Did every scheduled run produce a record?"""
        return len(self.records) == self.config.scale.n_runs

    def metric_samples(self, name: str) -> np.ndarray:
        return np.array(
            [r.metric_of(name, self.config.metric) for r in self.records]
        )

    def ub_samples(self) -> np.ndarray:
        return np.array(
            [r.ub_value for r in self.records if r.ub_value is not None]
        )

    def aggregate(self) -> dict[str, ConfidenceInterval]:
        """Mean ± 95% CI of the experiment metric per heuristic (+ UB)."""
        out = {
            name: mean_ci(self.metric_samples(name))
            for name in self.config.heuristics
        }
        ub = self.ub_samples()
        if ub.size:
            out["ub"] = mean_ci(ub)
        return out

    def runtimes(self) -> dict[str, ConfidenceInterval]:
        """Mean ± CI heuristic runtime (seconds) per heuristic (+ UB)."""
        out = {}
        for name in self.config.heuristics:
            out[name] = mean_ci(
                [r.results[name][2] for r in self.records]
            )
        ub_rt = [r.ub_runtime for r in self.records if r.ub_runtime is not None]
        if ub_rt:
            out["ub"] = mean_ci(ub_rt)
        return out

    def ub_never_beaten(self, tol: float = 1e-6) -> bool:
        """Sanity invariant: no heuristic ever exceeds the run's UB."""
        for r in self.records:
            if r.ub_value is None:
                continue
            for name in self.config.heuristics:
                if r.metric_of(name, self.config.metric) > r.ub_value + tol:
                    return False
        return True


def _run_one(
    config: ExperimentConfig,
    run_index: int,
    run_timeout: float | None = None,
) -> RunRecord:
    """Execute all heuristics (and the UB) on one sampled workload."""
    with _run_deadline(run_timeout):
        return _run_one_inner(config, run_index)


def _run_one_inner(config: ExperimentConfig, run_index: int) -> RunRecord:
    seed = config.base_seed + run_index
    model = generate_model(config.effective_scenario(), seed=seed)
    ga_config = config.scale.genitor_config(bias=config.bias)
    # One profile memo for the whole run: every GA trial of every
    # heuristic maps the same model, so profiles computed by the first
    # trial are reused by all later ones (memoization never changes
    # results, only speed).
    profile_cache = ProfileCache()
    results: dict[str, tuple[float, float, float, int]] = {}
    for name in config.heuristics:
        heuristic = get_heuristic(name)
        if name in GA_HEURISTICS:
            res = best_of_trials(
                heuristic,
                model,
                n_trials=config.scale.n_trials,
                rng=seed * 7_919 + 13,
                config=ga_config,
                profile_cache=profile_cache,
            )
            runtime = res.stats.get(
                "total_runtime_seconds", res.runtime_seconds
            )
        else:
            res = heuristic(model)
            runtime = res.runtime_seconds
        results[name] = (
            res.fitness.worth,
            res.fitness.slackness,
            float(runtime),
            res.n_mapped,
        )
    ub_value = ub_runtime = None
    if config.compute_ub:
        from ..lp import upper_bound  # deferred: scipy.optimize is costly

        t0 = time.perf_counter()
        ub = upper_bound(model, objective=config.ub_objective)
        ub_runtime = time.perf_counter() - t0
        ub_value = ub.value
    return RunRecord(
        run_index=run_index, seed=seed, results=results,
        ub_value=ub_value, ub_runtime=ub_runtime,
    )


def _failure_of(config: ExperimentConfig, run_index: int, exc: BaseException) -> RunFailure:
    return RunFailure(
        run_index=run_index,
        seed=config.base_seed + run_index,
        error=f"{type(exc).__name__}: {exc}",
    )


def run_experiment(
    config: ExperimentConfig,
    n_workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
    run_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    chaos: ChaosPolicy | None = None,
) -> ExperimentOutcome:
    """Run the full multi-run protocol.

    Parameters
    ----------
    config:
        What to run.
    n_workers:
        Process-level parallelism across runs (each run is independent;
        1 keeps everything in-process, which is the right default on a
        single-core box and under pytest).  Parallel runs execute on a
        :class:`~repro.parallel.SupervisedPool`: a killed worker or
        collapsed pool is retried and ultimately replayed
        deterministically in-process, so infrastructure failures do not
        change results.
    progress:
        Optional ``callback(done, total)`` fired after each run is
        attempted (completed or failed), counting completed-so-far +
        failed-so-far as ``done``.
    run_timeout:
        Optional per-run wall-clock budget in seconds.  A run that
        exceeds it becomes a :class:`RunFailure` instead of hanging the
        whole experiment (POSIX main-thread only; see
        :func:`_run_deadline`).
    checkpoint:
        Optional JSON checkpoint path.  Completed runs are persisted as
        they finish; re-invoking with the same config and path resumes,
        recomputing only missing or failed runs.
    chaos:
        Optional seeded :class:`~repro.parallel.ChaosPolicy` threaded
        through the supervised pool's workers (tests and the
        ``repro chaos`` soak; ignored when ``n_workers`` is 1).

    A run whose own code raises (or that hangs past ``run_timeout``)
    produces a :class:`RunFailure` in ``outcome.failures`` —
    already-finished records are never lost.  Inspect
    ``outcome.complete`` before trusting aggregates from a partially
    failed experiment.
    """
    outcome = ExperimentOutcome(config=config)
    n = config.scale.n_runs
    ckpt: ExperimentCheckpoint | None = None
    if checkpoint is not None:
        ckpt = ExperimentCheckpoint.open(checkpoint, config)
        outcome.records.extend(ckpt.records)
    done_indices = {r.run_index for r in outcome.records}
    remaining = [r for r in range(n) if r not in done_indices]
    done = len(done_indices)

    def _attempted(record: RunRecord | None, failure: RunFailure | None) -> None:
        nonlocal done
        done += 1
        if record is not None:
            outcome.records.append(record)
            if ckpt is not None:
                ckpt.add(record)
        if failure is not None:
            outcome.failures.append(failure)
        if progress is not None:
            progress(done, n)

    if n_workers <= 1:
        for r in remaining:
            try:
                record = _run_one(config, r, run_timeout)
            except Exception as exc:
                _attempted(None, _failure_of(config, r, exc))
            else:
                _attempted(record, None)
    else:
        # The supervised pool absorbs infrastructure failures (worker
        # deaths, pool collapse) by retrying and ultimately replaying
        # the run in-process; only a run whose own code raises reaches
        # the failure path.  Checkpointing rides the on_result hook, so
        # records persist as runs finish, not at the end.
        def _collect(task_index: int, result: TaskOutcome) -> None:
            r = remaining[task_index]
            if result.ok:
                _attempted(result.value, None)
            else:
                _attempted(None, _failure_of(config, r, result.error))

        with SupervisedPool(n_workers, chaos=chaos) as pool:
            pool.run(
                [
                    Task(_run_one, (config, r, run_timeout))
                    for r in remaining
                ],
                on_result=_collect,
            )
    outcome.records.sort(key=lambda rec: rec.run_index)
    outcome.failures.sort(key=lambda f: f.run_index)
    return outcome
