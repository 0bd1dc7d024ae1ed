"""Simulation-setup parameters (Section 6 and Table 1).

Collects every constant the paper's workload generator uses, so that the
generator, the experiments, and the documentation all reference a single
source of truth.  All values default to the paper's; everything is
overridable for ablations.

Units
-----
The paper gives bandwidths in Mb/sec and output sizes in Kbytes.  We work
in **bytes and seconds** internally: 1 Mb/sec = 125 000 bytes/sec and
1 Kbyte = 1 000 bytes (decimal interpretation; only the *ratio* of the
two ranges matters to the allocation problem, and the decimal convention
matches 2005-era networking usage).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.exceptions import ModelError

__all__ = [
    "MB_PER_SEC",
    "KBYTE",
    "ScenarioParameters",
    "SCENARIO_1",
    "SCENARIO_2",
    "SCENARIO_3",
    "SCENARIOS",
    "get_scenario",
]

#: Bytes per second in one Mb/sec (megabit, decimal).
MB_PER_SEC = 1_000_000.0 / 8.0
#: Bytes in one Kbyte (decimal).
KBYTE = 1_000.0


@dataclass(frozen=True)
class ScenarioParameters:
    """Full parameterization of one workload scenario.

    Defaults outside the per-scenario µ ranges and string counts are the
    paper's Section-6 constants: 12 machines, route bandwidths uniform in
    [1, 10] Mb/sec, strings of 1–10 applications, nominal execution times
    uniform in [1, 10] s, nominal CPU utilizations uniform in [0.1, 1],
    output sizes uniform in [10, 100] Kbytes, worth factors drawn
    uniformly from {1, 10, 100}.
    """

    name: str
    description: str
    n_strings: int
    #: µ range scaling the end-to-end latency constraint ``Lmax[k]``.
    latency_mu: tuple[float, float]
    #: µ range scaling the period ``P[k]``.
    period_mu: tuple[float, float]
    n_machines: int = 12
    bandwidth_range: tuple[float, float] = (1.0 * MB_PER_SEC, 10.0 * MB_PER_SEC)
    apps_per_string: tuple[int, int] = (1, 10)
    comp_time_range: tuple[float, float] = (1.0, 10.0)
    cpu_util_range: tuple[float, float] = (0.1, 1.0)
    output_size_range: tuple[float, float] = (10.0 * KBYTE, 100.0 * KBYTE)
    worth_choices: tuple[int, ...] = (1, 10, 100)

    def __post_init__(self) -> None:
        if self.n_strings < 1:
            raise ModelError("n_strings must be >= 1")
        if self.n_machines < 1:
            raise ModelError("n_machines must be >= 1")
        for lo, hi, what in (
            (*self.latency_mu, "latency_mu"),
            (*self.period_mu, "period_mu"),
            (*self.bandwidth_range, "bandwidth_range"),
            (*self.comp_time_range, "comp_time_range"),
            (*self.cpu_util_range, "cpu_util_range"),
            (*self.output_size_range, "output_size_range"),
        ):
            if not (0 < lo <= hi):
                raise ModelError(f"{what} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        lo, hi = self.apps_per_string
        if not (1 <= lo <= hi):
            raise ModelError(f"apps_per_string must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        if self.cpu_util_range[1] > 1.0:
            raise ModelError("cpu_util_range upper bound cannot exceed 1")
        if not self.worth_choices:
            raise ModelError("worth_choices must not be empty")
        if not all(w > 0 for w in self.worth_choices):
            raise ModelError("worth choices must be positive")

    def scaled(self, n_strings: int | None = None, **overrides) -> "ScenarioParameters":
        """A copy with selected fields replaced (for reduced-scale runs)."""
        if n_strings is not None:
            overrides["n_strings"] = n_strings
        return replace(self, **overrides)


#: Scenario 1 — highly loaded system: 150 strings with relaxed QoS, so the
#: allocation stops when some resource hits its capacity (stage-1 limited).
SCENARIO_1 = ScenarioParameters(
    name="scenario1",
    description=(
        "Highly loaded: 150 strings, relaxed QoS constraints; partial "
        "allocation terminated by hardware capacity (stage 1)."
    ),
    n_strings=150,
    latency_mu=(4.0, 6.0),
    period_mu=(3.0, 4.5),
)

#: Scenario 2 — QoS-limited system: 150 strings with tight constraints, so
#: the allocation stops on a QoS violation before capacity is reached.
SCENARIO_2 = ScenarioParameters(
    name="scenario2",
    description=(
        "QoS-limited: 150 strings, tight throughput/latency constraints; "
        "partial allocation terminated by stage-2 QoS violations."
    ),
    n_strings=150,
    latency_mu=(1.25, 2.75),
    period_mu=(1.5, 2.5),
)

#: Scenario 3 — lightly loaded: 25 strings with relaxed QoS; the complete
#: set allocates, and only slackness differentiates the heuristics.
SCENARIO_3 = ScenarioParameters(
    name="scenario3",
    description=(
        "Lightly loaded: 25 strings, relaxed QoS; complete allocation — "
        "system slackness is the differentiating metric."
    ),
    n_strings=25,
    latency_mu=(4.0, 6.0),
    period_mu=(3.0, 4.5),
)

SCENARIOS: dict[str, ScenarioParameters] = {
    s.name: s for s in (SCENARIO_1, SCENARIO_2, SCENARIO_3)
}


def get_scenario(name: str) -> ScenarioParameters:
    """Look up a scenario by name ('scenario1' | 'scenario2' | 'scenario3').

    Also accepts the bare digit ('1', '2', '3').
    """
    key = name if name.startswith("scenario") else f"scenario{name}"
    try:
        return SCENARIOS[key]
    except KeyError:
        raise ModelError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
