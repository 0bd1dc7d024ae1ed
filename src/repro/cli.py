"""Command-line interface — the reproduction's "interactive software
application" (Section 8).

Subcommands cover the full paper workflow:

* ``repro table1`` / ``fig2`` / ``fig3`` / ``fig4`` / ``fig5`` /
  ``runtime`` — regenerate each evaluation artifact at a chosen scale;
* ``repro ablate {bias,seeding,stop-rule}`` — the Section-5 ablations;
* ``repro survivability`` — worth retained after random resource
  faults, per heuristic and recovery policy;
* ``repro generate`` / ``allocate`` / ``evaluate`` / ``ub`` /
  ``surge`` / ``inject`` / ``simulate`` — the single-instance workflow
  on JSON model/allocation files.

Every command prints plain text to stdout and is deterministic for a
given ``--seed``.  Module scope imports only layers that building the
parser loads anyway; the simulator, the LP bound, the surge analysis and
the experiment harness load inside the handlers that run them, so
``repro --help`` and ``repro fleet`` skip them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .core.exceptions import ModelError
from .core.feasibility import analyze
from .core.metrics import evaluate
from .experiments.runner import SCALES
from .faults import available_policies, parse_fault, recover_from_events
from .heuristics import available, get_heuristic
from .io_utils import (
    load_allocation,
    load_model,
    save_allocation,
    save_model,
)
from .quality.cli import add_lint_arguments, run_lint
from .workload import generate_model, get_scenario

__all__ = ["main", "build_parser"]


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="smoke",
        help="experiment scale preset (see EXPERIMENTS.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    from .fleet.solver import SHARD_SOLVERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Resource Allocation for Periodic "
            "Applications in a Shipboard Environment' (IPPS 2005)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the paper's Table 1")

    p = sub.add_parser("fig2", help="Figure 2: CPU-sharing overlap cases")
    p.add_argument("--datasets", type=int, default=40)

    for fig in ("fig3", "fig4", "fig5"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        _add_scale(p)
        p.add_argument("--seed", type=int, default=1_000)
        p.add_argument("--no-ub", action="store_true",
                       help="skip the LP upper bound")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--run-timeout", type=float, default=None,
                       help="per-run wall-clock budget in seconds")
        p.add_argument("--checkpoint", default=None,
                       help="JSON checkpoint path (resume after a kill)")

    p = sub.add_parser("runtime", help="heuristic runtime comparison")
    _add_scale(p)
    p.add_argument("--seed", type=int, default=2_000)

    p = sub.add_parser("ablate", help="Section-5 ablation studies")
    p.add_argument(
        "study",
        choices=("bias", "seeding", "stop-rule", "crossover",
                 "heterogeneity"),
    )
    _add_scale(p)

    p = sub.add_parser(
        "surge-curve",
        help="worth retained vs uniform workload surge, per heuristic",
    )
    _add_scale(p)

    p = sub.add_parser(
        "survivability",
        help=(
            "worth retained after k random resource faults, per "
            "heuristic and recovery policy"
        ),
    )
    _add_scale(p)
    p.add_argument("--scenario", default="1", help="1 | 2 | 3")
    p.add_argument("--heuristics", default="mwf,tf",
                   help=f"comma-separated; any of: {', '.join(available())}")
    p.add_argument(
        "--policies", default="shed,repair,remap-mwf",
        help=f"comma-separated; any of: {', '.join(available_policies())}",
    )
    p.add_argument("--faults", type=int, default=3,
                   help="faults sampled per run (kind-diverse)")
    p.add_argument("--seed", type=int, default=9_000)

    p = sub.add_parser(
        "report", help="regenerate every paper artifact into one document"
    )
    _add_scale(p)
    p.add_argument("-o", "--output", default=None,
                   help="write markdown here instead of stdout")

    p = sub.add_parser("generate", help="sample a workload instance")
    p.add_argument("--scenario", default="1", help="1 | 2 | 3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strings", type=int, default=None,
                   help="override the scenario's string count")
    p.add_argument("--machines", type=int, default=None,
                   help="override the scenario's machine count")
    p.add_argument("-o", "--output", required=True, help="model JSON path")

    p = sub.add_parser("allocate", help="run a heuristic on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--heuristic", default="mwf",
                   help=f"one of: {', '.join(available())}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None,
                   help="write the allocation JSON here")

    p = sub.add_parser("evaluate", help="feasibility + metrics of an allocation")
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)

    p = sub.add_parser(
        "describe", help="per-resource/per-string allocation diagnostics"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)

    p = sub.add_parser("ub", help="LP upper bound of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", choices=("partial", "complete"),
                   default="partial")

    p = sub.add_parser("surge", help="max absorbable workload surge")
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)

    p = sub.add_parser(
        "inject",
        help="apply fault events to an allocation and recover",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument(
        "--fault", action="append", required=True, dest="fault_specs",
        help=(
            "repeatable; machine:J | route:A-B | degrade-machine:J:F | "
            "degrade-route:A-B:F | zone:J[:A-B,...]"
        ),
    )
    p.add_argument(
        "--policy", default="repair",
        help=f"one of: {', '.join(available_policies())}",
    )
    p.add_argument("-o", "--output", default=None,
                   help="write the recovered allocation JSON here")

    p = sub.add_parser("simulate", help="discrete-event validation run")
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--datasets", type=int, default=30)
    p.add_argument("--skip", type=int, default=3)

    p = sub.add_parser(
        "soak",
        help=(
            "long-horizon service soak: fault + drift + churn events "
            "through the online mission controller"
        ),
    )
    p.add_argument("--scenario", default="1", help="1 | 2 | 3")
    p.add_argument("--services", type=int, default=10,
                   help="mission catalog size")
    p.add_argument("--machines", type=int, default=6)
    p.add_argument("--events", type=int, default=40,
                   help="mission events to replay")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=float, default=0.25,
                   help="per-request wall-clock budget (seconds)")
    p.add_argument("--initial-active", type=int, default=None,
                   help="services active at start (default: half)")
    p.add_argument("--baseline", action="store_true",
                   help="run the shed-only baseline instead of the service")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="write-ahead journal directory: commit every "
                        "event before applying it; rerun with the same "
                        "DIR to resume bit-identically after kill -9")

    p = sub.add_parser(
        "recover",
        help=(
            "kill-at-any-point recovery soak: SIGKILL a journaled "
            "mission controller at fuzzed crash points, recover, and "
            "verify bit-identical state with zero committed-event "
            "loss (see docs/robustness.md)"
        ),
    )
    p.add_argument("--events", type=int, default=10,
                   help="mission events per run")
    p.add_argument("--kills", type=int, default=5,
                   help="SIGKILL rounds (phases cycle pre-commit, "
                        "torn-commit, post-commit, pre-outcome, "
                        "post-apply)")
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--services", type=int, default=6)
    p.add_argument("--machines", type=int, default=4)
    p.add_argument("--torn-rate", type=float, default=0.0,
                   help="chaos round: torn-write probability per append")
    p.add_argument("--fsync-rate", type=float, default=0.0,
                   help="chaos round: fsync-failure probability")
    p.add_argument("--enospc-rate", type=float, default=0.0,
                   help="chaos round: ENOSPC probability")
    p.add_argument("--duplicate-rate", type=float, default=0.0,
                   help="chaos round: duplicated-frame probability")
    p.add_argument("--workdir", default=None,
                   help="journal workspace (default: a temp dir)")
    p.add_argument("--keep", action="store_true",
                   help="keep the workspace for inspection")
    # child mode: internal — the soak spawns these to SIGKILL them
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--journal", default=None, help=argparse.SUPPRESS)
    p.add_argument("--phase", default=None, help=argparse.SUPPRESS)
    p.add_argument("--kill-seq", type=int, default=0,
                   help=argparse.SUPPRESS)

    p = sub.add_parser(
        "fleet",
        help=(
            "sharded fleet-scale solve: partition a generated fleet "
            "into K affinity shards, solve them over the supervised "
            "pool, rebalance boundary strings, and print the "
            "conservation-checked composition (see docs/fleet.md)"
        ),
    )
    p.add_argument("--scenario", default="fleet-smoke",
                   help="fleet-smoke | fleet-bench | fleet-large")
    p.add_argument("--shards", type=int, default=2,
                   help="shard count K (1 = monolithic baseline; "
                        "must be <= the scenario's zone count)")
    p.add_argument("--machines", type=int, default=None,
                   help="override the scenario's machine count")
    p.add_argument("--strings", type=int, default=None,
                   help="override the scenario's string count")
    p.add_argument("--seed", type=int, default=42,
                   help="fleet generator / partition / solver seed")
    p.add_argument("--solver", choices=SHARD_SOLVERS,
                   default="skip-ahead", help="per-shard solver")
    p.add_argument("--workers", type=int, default=None,
                   help="pool width (default min(K, 4); 1 = inline)")
    p.add_argument("--rebalance-rounds", type=int, default=2,
                   help="max cross-shard migration rounds (0 disables)")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the composed result summary here")

    p = sub.add_parser(
        "chaos",
        help=(
            "chaos soak: run best-of-trials clean vs. fault-injected "
            "on a SupervisedPool and verify bit-identical results "
            "and zero lost tasks (see docs/robustness.md)"
        ),
    )
    p.add_argument("--rounds", type=int, default=2,
                   help="paired clean/chaotic rounds")
    p.add_argument("--trials", type=int, default=4,
                   help="GA trials per round")
    p.add_argument("--workers", type=int, default=2,
                   help="supervised pool width")
    p.add_argument("--kill-rate", type=float, default=0.1,
                   help="probability a task attempt SIGKILLs its worker")
    p.add_argument("--delay-rate", type=float, default=0.1,
                   help="probability a task attempt is stalled")
    p.add_argument("--corrupt-rate", type=float, default=0.1,
                   help="probability a result envelope comes back corrupted")
    p.add_argument("--seed", type=int, default=777,
                   help="root seed for workloads, trials, and faults")
    p.add_argument("--fleet-shards", type=int, default=2,
                   help="shard count for the sharded-fleet chaos round "
                        "(0 skips it)")

    p = sub.add_parser(
        "lint",
        help="run the domain-aware static analyzer "
             "(file rules RPR001-RPR008 + RPR013-RPR014, "
             "project rules RPR009-RPR012)",
    )
    add_lint_arguments(p)

    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments.figures import run_figure

    result = run_figure(
        args.command,
        scale=args.scale,
        base_seed=args.seed,
        compute_ub=not args.no_ub,
        n_workers=args.workers,
        run_timeout=args.run_timeout,
        checkpoint=args.checkpoint,
    )
    print(result.chart())
    print()
    print(result.table())
    print()
    print(f"heuristics below UB: {result.heuristics_below_ub()}")
    print(f"evolutionary dominates: {result.evolutionary_dominates()}")
    for failure in result.outcome.failures:
        print(
            f"run {failure.run_index} (seed {failure.seed}) failed: "
            f"{failure.error}",
            file=sys.stderr,
        )
    return 0 if result.outcome.complete else 1


def _cmd_survivability(args: argparse.Namespace) -> int:
    from .experiments.survivability import run_survivability

    out = run_survivability(
        scenario=get_scenario(args.scenario),
        scale=args.scale,
        heuristics=tuple(args.heuristics.split(",")),
        policies=tuple(args.policies.split(",")),
        n_faults=args.faults,
        base_seed=args.seed,
    )
    print("Sampled fault scenarios (one per run):")
    for i, description in enumerate(out["faults"]):
        print(f"  run {i}: {description.splitlines()[-1]}")
    print()
    print(out["table"])
    print()
    print("Critical machines (worth lost when each fails alone, shed):")
    print(out["criticality_table"])
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    allocation = load_allocation(args.allocation, model)
    events = [parse_fault(spec) for spec in args.fault_specs]
    outcome = recover_from_events(allocation, events, args.policy)
    print(outcome.injection.describe())
    print()
    print(outcome.summary())
    if args.output:
        save_allocation(outcome.allocation, args.output)
        print(f"recovered allocation written to {args.output}")
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    heuristic = get_heuristic(args.heuristic)
    if args.heuristic in ("psg", "seeded-psg", "random-order", "best-random"):
        result = heuristic(model, rng=args.seed)
    else:
        result = heuristic(model)
    print(result.summary())
    if args.output:
        save_allocation(result.allocation, args.output)
        print(f"allocation written to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    allocation = load_allocation(args.allocation, model)
    report = analyze(allocation)
    fitness = evaluate(allocation)
    print(report.summary())
    print(f"total worth: {fitness.worth:g}")
    print(f"system slackness: {fitness.slackness:.4f}")
    print(f"strings mapped: {allocation.n_strings}/{model.n_strings}")
    return 0 if report.feasible else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .des import compare_to_estimates

    model = load_model(args.model)
    allocation = load_allocation(args.allocation, model)
    comparison = compare_to_estimates(
        allocation, n_datasets=args.datasets, skip_datasets=args.skip
    )
    print(comparison.summary())
    rows = [
        (f"string {k} app {i}", est, meas, abs(meas - est) / est)
        for (k, i), (est, meas) in sorted(comparison.comp.items())
    ]
    print(format_table(
        ["application", "eq.(5) estimate", "simulated mean", "rel err"],
        rows[:40],
    ))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .service import SoakConfig, run_soak

    scenario = args.scenario
    if not scenario.startswith("scenario"):
        scenario = f"scenario{scenario}"
    initial = (
        args.services // 2
        if args.initial_active is None
        else args.initial_active
    )
    config = SoakConfig(
        scenario=scenario,
        n_services=args.services,
        n_machines=args.machines,
        n_events=args.events,
        seed=args.seed,
        budget=args.budget,
        initial_active=initial,
        mode="shed-baseline" if args.baseline else "service",
    )
    report = run_soak(config, journal_dir=args.journal)
    print(report.summary())
    hit = report.deadline_hit_rate
    overrun = report.max_elapsed - (config.budget + config.grace)
    if overrun > 0:
        print(
            f"WARNING: worst request exceeded budget + grace by "
            f"{overrun:.3f}s",
            file=sys.stderr,
        )
    return 0 if hit >= 0.99 and overrun <= 0 else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    from .experiments.recovery import (
        RecoveryConfig,
        run_recovery_child,
        run_recovery_soak,
    )

    if args.child:
        if args.config is None or args.journal is None or args.phase is None:
            print(
                "--child requires --config, --journal, and --phase",
                file=sys.stderr,
            )
            return 2
        return run_recovery_child(
            args.config, args.journal, args.phase, args.kill_seq
        )

    config = RecoveryConfig(
        n_services=args.services,
        n_machines=args.machines,
        n_events=args.events,
        seed=args.seed,
        kills=args.kills,
        torn_rate=args.torn_rate,
        fsync_rate=args.fsync_rate,
        enospc_rate=args.enospc_rate,
        duplicate_rate=args.duplicate_rate,
    )
    cleanup = None
    workdir = args.workdir
    if workdir is None:
        import tempfile

        tmp = tempfile.TemporaryDirectory(prefix="repro-recover-")
        workdir = tmp.name
        if not args.keep:
            cleanup = tmp
    try:
        report = run_recovery_soak(
            config, workdir, progress=lambda msg: print(f"  .. {msg}")
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .fleet import solve_fleet
    from .workload.fleet import generate_fleet, get_fleet_scenario

    scenario = get_fleet_scenario(args.scenario)
    overrides: dict[str, int] = {}
    if args.machines is not None:
        overrides["n_machines"] = args.machines
    if args.strings is not None:
        overrides["n_strings"] = args.strings
    if overrides:
        scenario = scenario.scaled(**overrides)
    workload = generate_fleet(scenario, seed=args.seed)
    result = solve_fleet(
        workload,
        args.shards,
        solver=args.solver,
        seed=args.seed,
        n_workers=args.workers,
        rebalance_rounds=args.rebalance_rounds,
    )
    print(
        f"{scenario.name}: {workload.n_machines} machines / "
        f"{workload.n_strings} strings in {scenario.n_zones} zones, "
        f"seed {args.seed}"
    )
    for sol in result.shard_solutions:
        shard_rejected = len(sol.rejected)
        print(
            f"  shard {sol.shard_index}: "
            f"{len(sol.placements)} placed, {shard_rejected} rejected, "
            f"worth={sol.worth:g}, slack={sol.slackness:.4f}"
        )
    reb = result.stats.get("rebalance")
    if reb is not None:
        print(
            f"rebalance: {reb['migrated']} migrated over "
            f"{reb['rounds']} round(s) "
            f"({reb['attempted']} attempts, "
            f"worth gained {reb['worth_gained']:g})"
        )
    print(
        f"composed: {result.n_placed}/{workload.n_strings} placed, "
        f"worth={result.total_worth:g}, "
        f"min slack={result.min_slackness:.4f}, "
        f"{result.runtime_seconds:.3f}s"
    )
    print(f"signature: {result.signature()}")
    if args.json_path:
        from .io_utils.atomic import atomic_write_text

        payload = {
            "scenario": scenario.name,
            "n_machines": workload.n_machines,
            "n_strings": workload.n_strings,
            "n_shards": result.n_shards,
            "solver": result.solver,
            "seed": result.seed,
            "total_worth": result.total_worth,
            "min_slackness": result.min_slackness,
            "n_placed": result.n_placed,
            "rejected": list(result.rejected),
            "runtime_seconds": result.runtime_seconds,
            "signature": result.signature(),
            "stats": result.stats,
        }
        atomic_write_text(args.json_path, json.dumps(payload, indent=2) + "\n")
        print(f"result summary written to {args.json_path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments.chaos_soak import run_chaos_soak

    report = run_chaos_soak(
        rounds=args.rounds,
        n_trials=args.trials,
        n_workers=args.workers,
        kill_rate=args.kill_rate,
        delay_rate=args.delay_rate,
        corrupt_rate=args.corrupt_rate,
        seed=args.seed,
        fleet_shards=args.fleet_shards,
    )
    for r in report["rounds"]:
        status = "ok" if r.ok else "FAIL"
        print(
            f"round {r.index}: {status}  "
            f"identical={r.identical}  lost={r.lost_tasks}  "
            f"deaths={r.worker_deaths}  corrupted={r.corrupted}  "
            f"retries={r.retries}  replayed={r.replayed_in_process}  "
            f"fitness={r.chaos_fitness}"
        )
    fleet = report["fleet"]
    if fleet is not None:
        status = "ok" if fleet.ok else "FAIL"
        print(
            f"fleet (K={fleet.n_shards}): {status}  "
            f"identical={fleet.identical}  lost={fleet.lost_tasks}  "
            f"deaths={fleet.worker_deaths}  corrupted={fleet.corrupted}  "
            f"worth={fleet.chaos_worth:g}"
        )
    print(report["summary"])
    print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Exit codes: 0 success, 1 a failed check, 2 a
    usage error — an argument value the model rejects (``ModelError``)
    or a file that cannot be read or written (``OSError``) ends with one
    ``error:`` line on stderr instead of a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        from .experiments.table1 import render_table1

        print(render_table1())
        return 0
    if args.command == "fig2":
        from .experiments.fig2 import run_fig2

        print(run_fig2(n_datasets=args.datasets)["table"])
        return 0
    if args.command in ("fig3", "fig4", "fig5"):
        return _cmd_figure(args)
    if args.command == "runtime":
        from .experiments.runtime_table import run_runtime_table

        out = run_runtime_table(scale=args.scale, seed=args.seed)
        print(out["table"])
        print(f"GA slower than single-shot: {out['ordering_ok']}")
        return 0
    if args.command == "ablate":
        from .experiments.ablations import (
            bias_sweep,
            crossover_ablation,
            heterogeneity_ablation,
            seeding_ablation,
            stop_rule_ablation,
        )

        study = {
            "bias": bias_sweep,
            "seeding": seeding_ablation,
            "stop-rule": stop_rule_ablation,
            "crossover": crossover_ablation,
            "heterogeneity": heterogeneity_ablation,
        }[args.study]
        print(study(scale=args.scale)["table"])
        return 0
    if args.command == "surge-curve":
        from .experiments.surge_curve import run_surge_curves

        out = run_surge_curves(scale=args.scale)
        print(out["table"])
        return 0
    if args.command == "survivability":
        return _cmd_survivability(args)
    if args.command == "inject":
        return _cmd_inject(args)
    if args.command == "report":
        from .experiments.report import full_report

        report = full_report(scale=args.scale)
        text = report.to_markdown()
        if args.output:
            from .io_utils.atomic import atomic_write_text

            atomic_write_text(args.output, text)
            print(f"report written to {args.output}")
        else:
            print(text)
        print(f"\nall checks passed: {report.all_passed}")
        return 0 if report.all_passed else 1
    if args.command == "generate":
        params = get_scenario(args.scenario)
        overrides = {}
        if args.strings is not None:
            overrides["n_strings"] = args.strings
        if args.machines is not None:
            overrides["n_machines"] = args.machines
        if overrides:
            params = params.scaled(**overrides)
        model = generate_model(params, seed=args.seed)
        save_model(model, args.output)
        print(
            f"wrote {model.n_strings}-string / {model.n_machines}-machine "
            f"instance ({params.name}, seed {args.seed}) to {args.output}"
        )
        return 0
    if args.command == "allocate":
        return _cmd_allocate(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "describe":
        from .analysis import describe_allocation

        model = load_model(args.model)
        allocation = load_allocation(args.allocation, model)
        print(describe_allocation(allocation))
        return 0
    if args.command == "ub":
        from .lp import upper_bound

        model = load_model(args.model)
        result = upper_bound(model, objective=args.objective)
        if args.objective == "complete" and result.value < 0.0:
            # Λ* < 0: even the fractional mapping over-subscribes a
            # resource, so no complete mapping passes stage 1.
            print(
                "no complete mapping fits: the LP's best slackness is "
                f"{result.value:.6g} < 0"
            )
            return 0
        label = "total worth" if args.objective == "partial" else "slackness Λ"
        print(f"upper bound ({label}): {result.value:.6g}")
        print(f"mean string fraction: {result.string_fractions.mean():.4f}")
        return 0
    if args.command == "surge":
        from .robustness import max_absorbable_surge

        model = load_model(args.model)
        allocation = load_allocation(args.allocation, model)
        profile = max_absorbable_surge(allocation)
        print(f"slackness Λ: {profile.slackness:.4f}")
        print(f"stage-1 surge limit Λ/(1-Λ): {profile.stage1_limit:.4f}")
        print(f"max absorbable surge δ*: {profile.max_delta:.4f}")
        print(f"QoS-bound before capacity: {profile.qos_bound}")
        return 0
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "lint":
        return run_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
