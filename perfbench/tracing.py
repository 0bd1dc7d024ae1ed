"""Span tracing for the benchmark's traced run.

The traced run wraps each layer's public names *where their callers
look them up* (a module global, or a method on the concrete class that
``AllocationState.__new__`` dispatches to), records one span per call,
and derives the per-layer metrics from the spans.  Spans stay in memory
and are written out when the run ends.

A span is ``[name, start, end, parent, request, extra]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``request`` the
serve-events sequence number the span belongs to (``None`` elsewhere),
and ``extra`` whatever the wrapper captured from the call's result.
Forked pool workers inherit the wrappers, but their spans stay in the
worker, so per-shard time comes from ``ShardSolution.runtime_seconds``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

NAME, START, END, PARENT, REQUEST, EXTRA = range(6)

#: per-layer metric name -> unit, in report order.  Every workload
#: reports every metric; a layer a workload does not reach reads 0.
LAYER_METRICS: dict[str, str] = {
    "workload.generate_s": "s",
    "core.try_add_calls": "count",
    "core.try_add_s": "s",
    "core.try_add_accept_frac": "fraction",
    "core.restore_calls": "count",
    "core.restore_s": "s",
    "core.batch_eval_calls": "count",
    "core.batch_eval_s": "s",
    "core.profile_hit_rate": "fraction",
    "heuristics.allocate_sequence_calls": "count",
    "heuristics.allocate_sequence_s": "s",
    "heuristics.imr_calls": "count",
    "heuristics.imr_s": "s",
    "heuristics.prefix_hit_depth": "strings",
    "heuristics.prefix_short_circuit_frac": "fraction",
    "heuristics.prefix_nodes": "count",
    "heuristics.psg_s": "s",
    "heuristics.mwf_ls_s": "s",
    "heuristics.mwf_s": "s",
    "heuristics.tf_s": "s",
    "genitor.iterations": "count",
    "genitor.evaluations": "count",
    "genitor.evals_per_s": "1/s",
    "genitor.repeat_frac": "ratio",
    "genitor.self_s": "s",
    "dynamic.carry_forward_calls": "count",
    "dynamic.carry_forward_s": "s",
    "service.build_model_s": "s",
    "service.cascade_s": "s",
    "service.cascade_win_frac": "fraction",
    "service.journal_appends": "count",
    "service.journal_append_s": "s",
    "service.journal_bytes": "bytes",
    "service.admitted": "count",
    "service.rejected": "count",
    "service.shed": "count",
    "service.event_p50_ms": "ms",
    "service.event_p90_ms": "ms",
    "fleet.partition_s": "s",
    "fleet.materialize_s": "s",
    "fleet.compose_s": "s",
    "fleet.validate_s": "s",
    "fleet.rebalance_s": "s",
    "fleet.migrated_frac": "fraction",
    "fleet.pool_overflow": "count",
    "fleet.shard_max_s": "s",
    "fleet.shard_straggler_ratio": "ratio",
    "parallel.pool_run_s": "s",
    "parallel.broadcast_s": "s",
    "parallel.pool_efficiency": "fraction",
    "parallel.retries": "count",
    "parallel.worker_deaths": "count",
    "parallel.lost_tasks": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}

#: cascade tier heuristic name -> span name
_TIER_SPANS = {
    "psg": "heuristics.psg",
    "mwf+ls": "heuristics.mwf_ls",
    "mwf": "heuristics.mwf",
    "tf": "heuristics.tf",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: serve-events: the seq of the request being served
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- wrapping --------------------------------------------------------------

    def traced(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Callable[[list[Any], tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with one span recorded around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.request, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if on_return is not None:
                on_return(span, args, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Callable[[list[Any], tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced version (undone by
        :meth:`uninstall`)."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, self.traced(name, original, on_return))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap every measured layer boundary."""
        mod = importlib.import_module
        state = mod("repro.core.state")
        soa = mod("repro.core.state_soa")
        jit = mod("repro.core.state_jit")
        batch = mod("repro.core.state_batch")
        genitor = mod("repro.genitor.engine")
        cascade = mod("repro.service.cascade")
        controller = mod("repro.service.controller")
        solver = mod("repro.fleet.solver")
        supervisor = mod("repro.parallel.supervisor")
        broadcast = mod("repro.parallel.broadcast")

        def accepted(span: list[Any], args: tuple, result: Any) -> None:
            span[EXTRA] = bool(result)

        def engine_stats(span: list[Any], args: tuple, result: Any) -> None:
            s = args[0].stats
            span[EXTRA] = (s.iterations, s.evaluations, s.cache_hits)

        def heuristic_stats(span: list[Any], args: tuple, result: Any) -> None:
            span[EXTRA] = result.stats

        for cls in [soa.SoaAllocationState, state.RecordAllocationState] + (
            [jit.JitAllocationState] if jit.HAVE_NUMBA else []
        ):
            self.wrap(cls, "try_add", "core.try_add", accepted)
            self.wrap(cls, "restore", "core.restore")
        self.wrap(batch.BatchEvaluator, "__call__", "core.batch_eval")
        self.wrap(mod("repro.workload"), "generate_model", "workload.generate")
        self.wrap(mod("repro.service.soak"), "generate_model",
                  "workload.generate")
        self.wrap(mod("repro.workload.fleet"), "generate_fleet",
                  "workload.generate")
        # ``repro.heuristics.psg`` the attribute is the function; the
        # module is reached through import_module.
        self.wrap(mod("repro.heuristics.psg"), "allocate_sequence",
                  "heuristics.allocate_sequence")
        self.wrap(solver, "allocate_sequence", "heuristics.allocate_sequence")
        self.wrap(mod("repro.heuristics.ordering"), "imr_map_string",
                  "heuristics.imr")
        self.wrap(mod("repro.fleet.rebalance"), "imr_map_string",
                  "heuristics.imr")
        self.wrap(genitor.GenitorEngine, "run", "genitor.run", engine_stats)

        get_heuristic = cascade.get_heuristic

        def traced_get_heuristic(name: str) -> Callable[..., Any]:
            return self.traced(
                _TIER_SPANS.get(name, "heuristics." + name),
                get_heuristic(name),
                heuristic_stats,
            )

        self._undo.append((cascade, "get_heuristic", get_heuristic, True))
        cascade.get_heuristic = traced_get_heuristic

        self.wrap(controller, "carry_forward", "dynamic.carry_forward")
        self.wrap(controller, "build_working_model", "service.build_model")
        self.wrap(cascade.SolverCascade, "solve", "service.cascade")
        self.wrap(mod("repro.service.journal").JournalStore, "append",
                  "service.journal_append")
        self.wrap(solver, "partition_fleet", "fleet.partition")
        self.wrap(solver, "materialize_model", "fleet.materialize")
        self.wrap(solver, "compose", "fleet.compose")
        self.wrap(solver, "validate_result", "fleet.validate")
        # solve_fleet imports ``rebalance`` from its module at call time
        self.wrap(mod("repro.fleet.rebalance"), "rebalance", "fleet.rebalance")
        self.wrap(supervisor.SupervisedPool, "run", "parallel.pool_run")
        self.wrap(broadcast.SharedModelGroup, "__enter__", "parallel.broadcast")


def summarize(
    spans: list[list[Any]], first: int = 0
) -> dict[str, dict[str, float]]:
    """Per span name over ``spans[first:]``: calls, inclusive seconds,
    and self seconds (the span's duration minus the part its child
    spans cover)."""
    rep = spans[first:]
    child_time = [0.0] * len(rep)
    for span in rep:
        parent = span[PARENT] - first
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for idx, span in enumerate(rep):
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[idx]
    return out


def layer_metrics(
    spans: list[list[Any]], first: int, extras: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` is the whole span list and ``first`` the index of the
    repetition's first span; ``extras`` holds the metrics the workload
    reads from program-reported stats and results (they override the
    span-derived defaults).
    """
    summary = summarize(spans, first)
    accepted = 0
    genitor = [0, 0, 0]
    heuristic_stats = []
    for span in spans[first:]:
        extra = span[EXTRA]
        if extra is None:
            continue
        if span[NAME] == "core.try_add":
            accepted += extra
        elif span[NAME] == "genitor.run":
            for k in range(3):
                genitor[k] += extra[k]
        else:
            heuristic_stats.append(extra)

    def t(name: str) -> float:
        return summary.get(name, {}).get("s", 0.0)

    def n(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    iterations, evaluations, repeats = genitor
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({
        "workload.generate_s": t("workload.generate"),
        "core.try_add_calls": n("core.try_add"),
        "core.try_add_s": t("core.try_add"),
        "core.try_add_accept_frac": _ratio(accepted, n("core.try_add")),
        "core.restore_calls": n("core.restore"),
        "core.restore_s": t("core.restore"),
        "core.batch_eval_calls": n("core.batch_eval"),
        "core.batch_eval_s": t("core.batch_eval"),
        "heuristics.allocate_sequence_calls": n(
            "heuristics.allocate_sequence"),
        "heuristics.allocate_sequence_s": t("heuristics.allocate_sequence"),
        "heuristics.imr_calls": n("heuristics.imr"),
        "heuristics.imr_s": t("heuristics.imr"),
        "heuristics.psg_s": t("heuristics.psg"),
        "heuristics.mwf_ls_s": t("heuristics.mwf_ls"),
        "heuristics.mwf_s": t("heuristics.mwf"),
        "heuristics.tf_s": t("heuristics.tf"),
        "genitor.iterations": iterations,
        "genitor.evaluations": evaluations,
        # the initial population is scored through the batch kernel
        "genitor.evals_per_s": _ratio(
            evaluations, t("genitor.run") + t("core.batch_eval")),
        "genitor.repeat_frac": _ratio(repeats, iterations),
        "genitor.self_s": summary.get("genitor.run", {}).get("self_s", 0.0),
        "dynamic.carry_forward_calls": n("dynamic.carry_forward"),
        "dynamic.carry_forward_s": t("dynamic.carry_forward"),
        "service.build_model_s": t("service.build_model"),
        "service.cascade_s": t("service.cascade"),
        "service.journal_appends": n("service.journal_append"),
        "service.journal_append_s": t("service.journal_append"),
        "fleet.partition_s": t("fleet.partition"),
        "fleet.materialize_s": t("fleet.materialize"),
        "fleet.compose_s": t("fleet.compose"),
        "fleet.validate_s": t("fleet.validate"),
        "fleet.rebalance_s": t("fleet.rebalance"),
        "parallel.pool_run_s": t("parallel.pool_run"),
        "parallel.broadcast_s": t("parallel.broadcast"),
        "trace.spans": len(spans) - first,
    })
    out.update(cache_metrics(heuristic_stats))
    out.update(extras)
    busy = out.pop("parallel.busy_s", 0.0)
    workers = out.pop("parallel.workers", 0)
    out["parallel.pool_efficiency"] = _ratio(
        busy, workers * out["parallel.pool_run_s"]
    )
    return out


def cache_metrics(stats_list: list[dict[str, Any]]) -> dict[str, float]:
    """Cache metrics pooled over heuristic runs' ``stats`` (the
    program-reported ``projection_cache`` and ``profile_cache``)."""
    lookups = depth = short = nodes = hits = misses = 0.0
    for stats in stats_list:
        proj = stats.get("projection_cache")
        if proj:
            lookups += proj["lookups"]
            depth += proj["mean_hit_depth"] * proj["lookups"]
            short += proj["fail_short_circuits"]
            nodes += proj["nodes"]
        prof = stats.get("profile_cache")
        if prof:
            hits += prof["hits"]
            misses += prof["misses"]
    return {
        "core.profile_hit_rate": _ratio(hits, hits + misses),
        "heuristics.prefix_hit_depth": _ratio(depth, lookups),
        "heuristics.prefix_short_circuit_frac": _ratio(short, lookups),
        "heuristics.prefix_nodes": nodes,
    }


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over traced repetitions."""
    return {
        name: float(statistics.median(rep[name] for rep in reps))
        for name in LAYER_METRICS
    }


def write_spans(path: Path, tracer: Tracer) -> None:
    """Write every recorded span plus the per-name summary as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        [s[NAME], s[START], s[END], s[PARENT], s[REQUEST]]
        for s in tracer.spans
    ]
    payload = {"summary": summarize(tracer.spans), "spans": spans}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
