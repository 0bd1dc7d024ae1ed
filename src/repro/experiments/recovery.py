"""Kill-at-any-point recovery soak behind ``repro recover``.

The durability contract of :mod:`repro.service.durable` is only worth
what its worst crash point is worth, so this soak SIGKILLs a journaled
controller subprocess at *fuzzed* event indices across every phase of
the commit-before-apply protocol —

* ``pre-commit``  — before the event frame is appended (event lost:
  it was never durable, and that is the documented contract);
* ``torn-commit`` — mid-append, after ~half the frame's bytes hit the
  file (a provably torn tail the recovery scan must truncate);
* ``post-commit`` — after the event frame is durable but before the
  apply (recovery must re-serve the event deterministically);
* ``pre-outcome`` — after the apply but before the outcome record
  (same recovery obligation as ``post-commit``);
* ``post-apply``  — after the outcome record (pure state-only replay);

— then recovers in-process and asserts the recovered
``allocation_snapshot()`` / cumulative worth / health state is
**bit-identical** to an uninterrupted reference run at the recovered
event count, that the journal conservation counter
``applied == (committed + truncated_uncommitted) - truncated_uncommitted``
holds, that finishing the remaining events lands on the exact
reference final state, and that reopening the journal so finished
recovers every event to that same state.  A separate chaos round replays the full stream
under a seeded :class:`~repro.service.diskchaos.DiskChaosPolicy`
(torn/fsync/ENOSPC/duplicate injection) and proves the faults actually
fired by recomputing the expected schedule from the policy — zero
committed events may be lost either way.

Determinism: the controller runs under a fake tick clock with a budget
the solve can never exhaust, and the GA tier is capped by iterations
rather than wall time, so every run — reference, killed child,
recovery, continuation — is a pure function of ``(seed, events)``.

Imports of :mod:`repro.service` are function-scope throughout:
``experiments`` (layer 5) sits below ``service`` (layer 6) in the
import-layer map (RPR011), and lazy imports are the sanctioned
mechanism for this upward reference (the CLI does the same).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..core.exceptions import ModelError
from ..io_utils.checkpoint import fingerprint_payload

if TYPE_CHECKING:  # pragma: no cover - layering: lazy runtime imports
    from ..service.durable import DurableMissionController
    from ..service.journal import JournalHooks

__all__ = [
    "KILL_PHASES",
    "KillRound",
    "RecoveryConfig",
    "RecoverySoakReport",
    "TickClock",
    "run_recovery_child",
    "run_recovery_soak",
]

#: crash phases, cycled over the kill rounds so every protocol edge is
#: exercised once the round count reaches ``len(KILL_PHASES)``
KILL_PHASES = (
    "pre-commit",
    "torn-commit",
    "post-commit",
    "pre-outcome",
    "post-apply",
)

_CONFIG_FILE = "recover-config.json"


class TickClock:
    """Deterministic monotonic clock: each call advances a fixed tick.

    Makes the controller a pure function of ``(seed, events)`` — wall
    time never enters a decision because the per-request budget is set
    far above anything ``n_events`` ticks can consume.
    """

    def __init__(self, tick: float = 1e-4) -> None:
        self._tick = tick
        self._now = 0.0

    def __call__(self) -> float:
        self._now += self._tick
        return self._now


@dataclass(frozen=True)
class RecoveryConfig:
    """Full parameterization of one recovery soak (fingerprinted)."""

    scenario: str = "scenario1"
    n_services: int = 6
    n_machines: int = 4
    n_events: int = 10
    seed: int = 29
    initial_active: int = 3
    #: SIGKILL rounds; phases cycle through :data:`KILL_PHASES`
    kills: int = 5
    #: per-request budget in *fake* clock seconds — must be
    #: unreachable so deadlines never bind (determinism)
    budget: float = 60.0
    #: storage-fault rates for the chaos round (0 = no chaos round)
    torn_rate: float = 0.0
    fsync_rate: float = 0.0
    enospc_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: small GA caps: iteration-bounded, so the psg tier is exercised
    #: without wall-clock dependence
    ga_population: int = 12
    ga_max_iterations: int = 40
    ga_max_stale: int = 15

    def __post_init__(self) -> None:
        if self.n_services < 1 or self.n_machines < 2:
            raise ModelError("need >= 1 service and >= 2 machines")
        if self.n_events < 1:
            raise ModelError("n_events must be >= 1")
        if not 0 <= self.initial_active <= self.n_services:
            raise ModelError("initial_active must lie in [0, n_services]")
        if self.kills < 0:
            raise ModelError("kills must be >= 0")
        if self.budget <= 0:
            raise ModelError("budget must be positive")
        for name in (
            "torn_rate",
            "fsync_rate",
            "enospc_rate",
            "duplicate_rate",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ModelError(f"{name} must lie in [0, 1]")

    def fingerprint(self) -> str:
        return fingerprint_payload(
            {
                "schema": "repro/recovery-soak-v1",
                **dataclasses.asdict(self),
            }
        )

    @property
    def has_chaos(self) -> bool:
        return (
            self.torn_rate > 0
            or self.fsync_rate > 0
            or self.enospc_rate > 0
            or self.duplicate_rate > 0
        )


@dataclass
class KillRound:
    """One SIGKILL-then-recover round."""

    phase: str
    kill_seq: int
    child_returncode: int
    applied: int
    committed: int
    reapplied: int
    truncated_uncommitted: int
    conserved: bool
    #: recovered state bit-identical to the reference prefix
    identical_at_recovery: bool
    #: state after finishing the remaining events equals the
    #: uninterrupted reference final state
    identical_at_end: bool
    #: reopening the finished journal recovers every event to the
    #: reference final state
    identical_at_reopen: bool

    @property
    def ok(self) -> bool:
        return (
            self.child_returncode == -signal.SIGKILL
            and self.conserved
            and self.identical_at_recovery
            and self.identical_at_end
            and self.identical_at_reopen
        )


@dataclass
class RecoverySoakReport:
    """Aggregated kill-at-any-point soak results."""

    config: RecoveryConfig
    reference_worth: float
    rounds: list[KillRound] = field(default_factory=list)
    chaos_expected: dict[str, int] = field(default_factory=dict)
    chaos_observed: dict[str, int] = field(default_factory=dict)
    chaos_identical: bool = True
    chaos_conserved: bool = True

    @property
    def chaos_fired(self) -> bool:
        """Every expected storage fault was actually injected."""
        return all(
            self.chaos_observed.get(f"injected_{kind}", 0) == count
            for kind, count in self.chaos_expected.items()
        )

    @property
    def torn_tail_exercised(self) -> bool:
        """At least one round left (and truncated) a torn tail."""
        return any(
            r.phase == "torn-commit" and r.truncated_uncommitted >= 1
            for r in self.rounds
        )

    @property
    def ok(self) -> bool:
        kills_ok = all(r.ok for r in self.rounds)
        torn_ok = self.torn_tail_exercised or not any(
            r.phase == "torn-commit" for r in self.rounds
        )
        chaos_ok = (
            self.chaos_identical
            and self.chaos_conserved
            and (self.chaos_fired or not self.config.has_chaos)
        )
        return kills_ok and torn_ok and chaos_ok

    def summary(self) -> str:
        lines = [
            f"recovery soak seed={self.config.seed}: "
            f"{self.config.n_events} events, {len(self.rounds)} kill "
            f"rounds, reference worth {self.reference_worth:g}",
        ]
        for r in self.rounds:
            lines.append(
                f"  [{'ok' if r.ok else 'FAIL'}] {r.phase:<12} "
                f"kill@{r.kill_seq}: applied={r.applied} "
                f"committed={r.committed} reapplied={r.reapplied} "
                f"torn={r.truncated_uncommitted} "
                f"recover={'=' if r.identical_at_recovery else '!='} "
                f"final={'=' if r.identical_at_end else '!='} "
                f"reopen={'=' if r.identical_at_reopen else '!='}"
            )
        if self.config.has_chaos:
            lines.append(
                f"  [{'ok' if self.chaos_fired else 'FAIL'}] chaos: "
                f"expected {self.chaos_expected} observed "
                + str(
                    {
                        k: v
                        for k, v in self.chaos_observed.items()
                        if k.startswith("injected_")
                    }
                )
                + f" identical={self.chaos_identical} "
                f"conserved={self.chaos_conserved}"
            )
        lines.append(
            "  zero committed events lost; bit-identical recovery"
            if self.ok
            else "  FAILURE: durability contract violated"
        )
        return "\n".join(lines)


# -- controller construction (lazy service imports) ------------------------


def _build_scene(config: RecoveryConfig) -> tuple[Any, list[int], tuple]:
    """(catalog, initial services, event stream) for one soak."""
    from ..service.events import generate_scenario
    from ..service.soak import SoakConfig, build_catalog, initial_services

    soak = SoakConfig(
        scenario=config.scenario,
        n_services=config.n_services,
        n_machines=config.n_machines,
        n_events=config.n_events,
        seed=config.seed,
        initial_active=config.initial_active,
    )
    catalog = build_catalog(soak)
    initial = initial_services(soak, catalog)
    events = generate_scenario(
        catalog, config.n_events, rng=config.seed + 1, config=soak.events
    )
    return catalog, initial, events


def _chaos_policy(config: RecoveryConfig) -> Any:
    from ..service.diskchaos import DiskChaosPolicy

    return DiskChaosPolicy(
        torn_rate=config.torn_rate,
        fsync_rate=config.fsync_rate,
        enospc_rate=config.enospc_rate,
        duplicate_rate=config.duplicate_rate,
        seed=config.seed,
    )


def _make_controller(
    config: RecoveryConfig,
    journal_dir: Path,
    *,
    hooks: "JournalHooks | None" = None,
    with_chaos: bool = False,
) -> "DurableMissionController":
    from ..service.cascade import CascadeConfig
    from ..service.controller import ServiceConfig
    from ..service.durable import DurableMissionController

    catalog, initial, _ = _build_scene(config)
    service_config = ServiceConfig(
        default_budget=config.budget,
        cascade=CascadeConfig(
            ga_population=config.ga_population,
            ga_max_iterations=config.ga_max_iterations,
            ga_max_stale=config.ga_max_stale,
        ),
    )
    return DurableMissionController(
        catalog,
        service_config,
        rng=config.seed + 2,
        clock=TickClock(),
        sleep=lambda _: None,
        journal_dir=journal_dir,
        initial_active=initial,
        fingerprint=config.fingerprint(),
        chaos=_chaos_policy(config) if with_chaos else None,
        hooks=hooks,
    )


def _state_triple(
    controller: "DurableMissionController",
) -> tuple[dict[int, tuple[int, ...]], float, dict[str, Any]]:
    return (
        controller.allocation_snapshot(),
        controller.total_worth,
        controller.monitor.export_state(),
    )


def _kill_hooks(phase: str, kill_seq: int) -> "JournalHooks":
    """Hooks that SIGKILL this process at one protocol crash point."""
    from ..service.journal import JournalHooks

    def die_on(record_type: str) -> Callable[[Any], None]:
        def hook(record: Any) -> None:
            if (
                record.get("type") == record_type
                and record.get("seq") == kill_seq
            ):
                os.kill(os.getpid(), signal.SIGKILL)

        return hook

    if phase == "pre-commit":
        return JournalHooks(before_append=die_on("event"))
    if phase == "torn-commit":
        return JournalHooks(mid_append=die_on("event"))
    if phase == "post-commit":
        return JournalHooks(after_append=die_on("event"))
    if phase == "pre-outcome":
        return JournalHooks(before_append=die_on("outcome"))
    if phase == "post-apply":
        return JournalHooks(after_append=die_on("outcome"))
    raise ModelError(f"unknown kill phase {phase!r}")


def _expected_after_kill(phase: str, kill_seq: int) -> tuple[int, int]:
    """(committed, reapplied) the recovery must report for a kill."""
    if phase in ("pre-commit", "torn-commit"):
        return kill_seq - 1, 0
    if phase in ("post-commit", "pre-outcome"):
        return kill_seq, 1
    if phase == "post-apply":
        return kill_seq, 0
    raise ModelError(f"unknown kill phase {phase!r}")


# -- child process ---------------------------------------------------------


def run_recovery_child(
    config_path: str | Path,
    journal_dir: str | Path,
    phase: str,
    kill_seq: int,
) -> int:
    """Child-process body behind ``repro recover --child``.

    Replays the configured event stream into a journaled controller,
    SIGKILLing itself at the configured crash point (``phase`` in
    :data:`KILL_PHASES`) — or, with ``phase == "chaos"``, running to
    completion under the storage-fault policy and printing its journal
    stats as JSON for the parent to audit.
    """
    data = json.loads(Path(config_path).read_text())
    config = RecoveryConfig(**data)
    _, _, events = _build_scene(config)
    if phase == "chaos":
        controller = _make_controller(
            config, Path(journal_dir), with_chaos=True
        )
        controller.run(list(events))
        controller.close()
        print(
            json.dumps(
                {"applied": controller.applied, "stats": controller.stats}
            )
        )
        return 0
    controller = _make_controller(
        config, Path(journal_dir), hooks=_kill_hooks(phase, kill_seq)
    )
    controller.run(list(events))
    # a kill phase must never complete the stream
    raise ModelError(
        f"kill phase {phase!r} at seq {kill_seq} never fired"
    )


def _spawn_child(
    workdir: Path, journal_dir: Path, phase: str, kill_seq: int
) -> subprocess.CompletedProcess[str]:
    """Run one ``repro recover --child`` subprocess (importable repro)."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(src_root), env.get("PYTHONPATH", ""))
        if p
    )
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "recover",
            "--child",
            "--config",
            str(workdir / _CONFIG_FILE),
            "--journal",
            str(journal_dir),
            "--phase",
            phase,
            "--kill-seq",
            str(kill_seq),
        ],
        env=env,
        capture_output=True,
        text=True,
    )


# -- the soak --------------------------------------------------------------


def run_recovery_soak(
    config: RecoveryConfig,
    workdir: str | Path,
    progress: Callable[[str], None] | None = None,
) -> RecoverySoakReport:
    """Run the kill-at-any-point recovery soak; return the report.

    ``workdir`` holds one journal directory per round plus the config
    document the child subprocesses read.  The caller owns cleanup.
    """
    from ..io_utils.atomic import atomic_write_text

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        workdir / _CONFIG_FILE,
        json.dumps(dataclasses.asdict(config), sort_keys=True),
    )
    _, _, events = _build_scene(config)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    # uninterrupted reference: state triple after every prefix
    note("reference run")
    reference = _make_controller(config, workdir / "reference")
    prefixes = [_state_triple(reference)]
    for event in events:
        reference.handle(event)
        prefixes.append(_state_triple(reference))
    reference.close()
    report = RecoverySoakReport(
        config=config, reference_worth=reference.total_worth
    )

    for k in range(config.kills):
        phase = KILL_PHASES[k % len(KILL_PHASES)]
        rng = np.random.default_rng((config.seed, 777, k))
        kill_seq = 1 + int(rng.integers(config.n_events))
        journal_dir = workdir / f"round{k}-{phase}"
        note(f"round {k}: SIGKILL at {phase} of event {kill_seq}")
        proc = _spawn_child(workdir, journal_dir, phase, kill_seq)

        recovered = _make_controller(config, journal_dir)
        rec = recovered.recovery
        expected_committed, expected_reapplied = _expected_after_kill(
            phase, kill_seq
        )
        identical_at_recovery = (
            rec.committed == expected_committed
            and rec.reapplied == expected_reapplied
            and rec.applied == rec.committed
            and _state_triple(recovered) == prefixes[rec.applied]
        )
        # finish the mission from the recovered state
        recovered.run(list(events[rec.applied :]))
        identical_at_end = _state_triple(recovered) == prefixes[-1]
        recovered.close()
        # the journal the recovered controller wrote must itself recover
        with _make_controller(config, journal_dir) as reopened:
            identical_at_reopen = (
                reopened.recovery.applied == config.n_events
                and _state_triple(reopened) == prefixes[-1]
            )
        report.rounds.append(
            KillRound(
                phase=phase,
                kill_seq=kill_seq,
                child_returncode=proc.returncode,
                applied=rec.applied,
                committed=rec.committed,
                reapplied=rec.reapplied,
                truncated_uncommitted=rec.truncated_uncommitted,
                conserved=rec.conserved,
                identical_at_recovery=identical_at_recovery,
                identical_at_end=identical_at_end,
                identical_at_reopen=identical_at_reopen,
            )
        )

    if config.has_chaos:
        note("chaos round (no kill): storage faults must be absorbed")
        journal_dir = workdir / "chaos"
        proc = _spawn_child(workdir, journal_dir, "chaos", 0)
        policy = _chaos_policy(config)
        # two appends per event (event + outcome), all first attempts
        report.chaos_expected = {
            kind: count
            for kind, count in policy.expected_faults(
                2 * config.n_events
            ).items()
            if count
        }
        if proc.returncode == 0 and proc.stdout.strip():
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
            report.chaos_observed = dict(payload["stats"])
        recovered = _make_controller(config, journal_dir)
        report.chaos_conserved = (
            recovered.recovery.conserved
            and recovered.recovery.applied == config.n_events
        )
        report.chaos_identical = (
            _state_triple(recovered) == prefixes[-1]
        )
        recovered.close()

    return report
