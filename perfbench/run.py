"""End-to-end benchmark of the repro allocator (see perfbench/README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-psg --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One run repeats its workload's unit of work (a best-of-trials plan, an
event stream, a fleet solve) until ``--seconds`` have passed, checks
every repetition's outputs outside the timed phase, prints each metric
by name with its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and then repeats the same repetitions with every
layer boundary wrapped (``tracing.py``), reporting the per-layer metrics
and the tracing overhead.  The exit code is 0 only when every check
passed.  The package is imported from ``src/`` next to this directory;
without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: lock file, journals, span dumps
OUT = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("plan-psg", "serve-events", "fleet-large")
#: repetitions per phase even when one outlasts ``--seconds``
MIN_REPS = 3
LOCK_WAIT_S = 60.0
#: set for the per-workload children of ``--workload all``, which run
#: under the parent's lock
_LOCK_HELD_ENV = "PERFBENCH_LOCK_HELD"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "worth": "worth",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_checkout_package() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"repro imported from {repro.__file__}, not {SRC}")


def _acquire_lock() -> object:
    """Exclusive lock: never two benchmark processes (and so never two
    workloads) at once.  plan-psg alone peaks near 2 GB."""
    OUT.mkdir(exist_ok=True)
    handle = open(OUT / "lock", "w")
    deadline = time.monotonic() + LOCK_WAIT_S
    while True:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return handle
        except BlockingIOError:
            if time.monotonic() > deadline:
                _fail("another benchmark process holds the lock")
            time.sleep(0.5)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Runner:
    """Drives one workload's repetitions and collects their results."""

    def __init__(self, name: str, seed: int) -> None:
        from workloads import WORKLOADS

        self.bench = WORKLOADS[name](seed, OUT)
        self.failures: list[str] = []
        self._fingerprint: object = None

    def rep(self, index: int, tracer=None):
        """One repetition: set-up, timed run, layer metrics, checks."""
        bench = self.bench
        first = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        ctx = bench.setup()
        setup_s = time.perf_counter() - t0
        ctx["tracer"] = tracer
        try:
            rep = bench.run(ctx)
            layer = (
                tracing.layer_metrics(tracer.spans, first, rep.layer)
                if tracer is not None
                else None
            )
            failures = bench.check(ctx, rep)
        finally:
            bench.close(ctx)
        if self._fingerprint is None:
            self._fingerprint = rep.fingerprint
        elif rep.fingerprint != self._fingerprint:
            failures.append("output differs from the run's first repetition")
        self.failures += [f"rep {index}: {f}" for f in failures]
        return setup_s, rep, layer

    def phase(self, seconds: float, count: int | None = None, tracer=None):
        """Repetitions until ``seconds`` pass (at least MIN_REPS), or
        exactly ``count`` of them."""
        results = []
        end = time.perf_counter() + seconds
        index = 0
        while (index < count) if count is not None else (
            index < MIN_REPS or time.perf_counter() < end
        ):
            results.append(self.rep(index, tracer))
            index += 1
        return results


def fastest_units(results) -> list[float]:
    """Each unit's fastest time over the repetitions.

    Repetitions do identical work.  On a shared host the machine's speed
    drifts by tens of percent over seconds, so the fastest time of each
    unit tracks the program rather than the drift, and short units catch
    fast stretches more often than whole repetitions do.
    """
    return [min(times) for times in zip(*(r.latencies for _, r, _ in results))]


def e2e_metrics(one_time_s: float, results) -> dict[str, tuple[float, int]]:
    """End-to-end metric -> (value, sample count)."""
    setups = [s for s, _, _ in results]
    worths = results[0][1].worths
    return {
        "setup_s": (one_time_s + statistics.median(setups), len(setups)),
        "wall_s": (sum(fastest_units(results)), len(results)),
        "worth": (statistics.fmean(worths), len(worths)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def event_metrics(name: str, results) -> dict[str, tuple[float, int]]:
    """Per-request latency percentiles over the events' fastest times."""
    if name != "serve-events":
        return {}
    fastest = fastest_units(results)
    return {
        "service.event_p50_ms": (1e3 * statistics.median(fastest),
                                 len(fastest)),
        "service.event_p90_ms": (1e3 * p90(fastest), len(fastest)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    runner = Runner(name, seed)
    one_time_s = time.perf_counter() - _T0
    untraced = runner.phase(seconds / 2 if trace else seconds)
    e2e = e2e_metrics(one_time_s, untraced)
    reps = [r for _, r, _ in untraced]
    slacks = reps[0].slacks
    extra = {
        label: (value, n, tracing.LAYER_METRICS[label])
        for label, (value, n) in event_metrics(name, untraced).items()
    }
    extra["slackness"] = (statistics.fmean(slacks), len(slacks), "fraction")

    layer_out: dict[str, float] = {}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.phase(0.0, count=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        reps += [r for _, r, _ in traced]
        layer_out = tracing.median_metrics([m for _, _, m in traced])
        layer_out.update(
            (label, value)
            for label, (value, _) in event_metrics(name, untraced).items()
        )
        plain = e2e["wall_s"][0]
        overhead = sum(fastest_units(traced)) - plain
        layer_out["trace.overhead_s"] = overhead
        layer_out["trace.overhead_frac"] = overhead / plain
        tracing.write_spans(OUT / f"trace-{name}-seed{seed}.json", tracer)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    extra["failed_frac"] = (failed / attempted, attempted, "fraction")
    for label, (value, n) in e2e.items():
        print(f"{name:13s} {label:38s} {value:14.6f} {E2E_UNITS[label]:9s} "
              f"n={n}")
    for label, (value, n, unit) in extra.items():
        print(f"{name:13s} {label:38s} {value:14.6f} {unit:9s} n={n}")
    for label, value in layer_out.items():
        print(f"{name:13s} {label:38s} {value:14.6f} "
              f"{tracing.LAYER_METRICS[label]:9s} traced")
    for failure in runner.failures:
        print(f"{name}: CHECK FAILED: {failure}", file=sys.stderr)

    if trace:
        metrics = {
            k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
            for k, v in layer_out.items()
        }
    else:
        metrics = {
            k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()
        }
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in turn, in its own child process so each reports
    its own peak RSS; never two at once."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    env = dict(os.environ, **{_LOCK_HELD_ENV: "1"})
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=env, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout_package()
    lock = None if os.environ.get(_LOCK_HELD_ENV) else _acquire_lock()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        if lock is not None:
            lock.close()


if __name__ == "__main__":
    sys.exit(main())
