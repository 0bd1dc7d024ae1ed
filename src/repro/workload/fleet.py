"""Fleet-scale workload generation (ROADMAP north-star scale).

The paper's generator (:mod:`repro.workload.generator`) materializes a
dense ``(M, M)`` network and per-string ``(n_apps, M)`` tables up front,
which is fine at ``M = 12`` but quadratic at fleet scale (10³–10⁴
machines).  This module keeps the workload *description* compact —
``O(n_strings + transfers)`` to generate, independent of machine count —
and derives every machine-dependent value lazily from a counter-based
hash of the global identifiers:

* per ordered machine pair ``(j1, j2)``: route bandwidth, a pure
  function of ``(seed, j1, j2)`` plus a zone-locality factor (intra-zone
  links are faster than inter-zone links);
* per ``(string, application, machine)``: execution time and CPU
  utilization, a pure function of ``(seed, k, i, j)`` — a multiplicative
  jitter around the string's machine-independent nominal values
  (semi-consistent heterogeneity).

Because every value is keyed by *global* ids, materializing a shard-local
:class:`~repro.core.model.SystemModel` for any subset of machines and
strings yields exactly the rows/columns the monolithic model would have:
shard models are consistent restrictions of one well-defined fleet, and
the same ``(scenario, seed)`` pair reproduces it bit-for-bit.

QoS bounds follow the paper's Section-8 formulas, with the network's
average inverse bandwidth replaced by a deterministic *expectation* over
the zone mix (so a string's period and latency bound do not depend on
which machine subset is materialized).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import log
from typing import Sequence

import numpy as np

from ..core.exceptions import ModelError
from ..core.model import AppString, Network, SystemModel
from ._pcg64_batch import Streams, seed_states
from .parameters import ScenarioParameters

__all__ = [
    "FLEET_BENCH",
    "FLEET_LARGE",
    "FLEET_SCENARIOS",
    "FLEET_SMOKE",
    "FleetScenario",
    "FleetString",
    "FleetWorkload",
    "MONOLITHIC_LIMIT",
    "generate_fleet",
    "get_fleet_scenario",
    "materialize_model",
    "materialize_string",
]

#: Largest machine subset :func:`materialize_model` will densify without
#: ``force=True`` — a guard against accidentally building an ``O(M²)``
#: network at fleet scale.
MONOLITHIC_LIMIT = 256

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Domain separator keeping fleet hash/seed streams disjoint from every
#: other SeedSequence user in the package.
_FLEET_TAG = 0xF1EE7
_TAG_ZONE = 1
_TAG_STRING = 2
_TAG_BANDWIDTH = 3
_TAG_COMP = 4
_TAG_UTIL = 5


def _mix64(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele et al.), vectorized over uint64."""
    h = h ^ (h >> np.uint64(30))
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> np.uint64(27))
    h = h * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _hash_uniform(*keys: int | np.ndarray) -> np.ndarray:
    """Uniform [0, 1) samples as a pure function of integer keys.

    Keys fold sequentially through the SplitMix64 finalizer, so the
    result is order-sensitive and broadcasts over array-valued keys.
    Integer arithmetic wraps modulo 2**64 (numpy unsigned semantics),
    which is exactly the counter-based construction we want: no
    generator state, every cell independent of which other cells are
    ever evaluated.
    """
    h = np.asarray(_GOLDEN)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        for key in keys:
            k = np.asarray(key, dtype=np.int64).astype(np.uint64)
            h = _mix64((h + k) * _GOLDEN)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


@dataclass(frozen=True)
class FleetScenario:
    """Parameterization of one fleet-scale workload.

    ``base`` supplies the paper's per-string ranges (comp times, CPU
    utilizations, output sizes, worth choices) and the µ ranges for the
    QoS bounds; its own ``n_machines``/``n_strings`` fields are ignored —
    the fleet counts below rule.
    """

    name: str
    description: str
    n_machines: int
    n_strings: int
    #: Number of locality zones; machines split near-evenly across them.
    n_zones: int
    #: Probability a string's transfer affinity spans two zones.
    cross_zone_rate: float
    base: ScenarioParameters = field(
        default_factory=lambda: ScenarioParameters(
            name="fleet-base",
            description="per-string ranges for fleet workloads",
            n_strings=1,
            latency_mu=(4.0, 6.0),
            period_mu=(3.0, 4.5),
        )
    )
    #: Inter-zone bandwidth multiplier (< 1 makes cross-zone links slower).
    inter_zone_factor: float = 0.5
    #: Half-width of the multiplicative per-machine jitter around each
    #: string's nominal execution time / CPU utilization.
    heterogeneity: float = 0.3

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise ModelError("n_machines must be >= 1")
        if self.n_strings < 1:
            raise ModelError("n_strings must be >= 1")
        if not (1 <= self.n_zones <= self.n_machines):
            raise ModelError("n_zones must satisfy 1 <= n_zones <= n_machines")
        if not (0.0 <= self.cross_zone_rate <= 1.0):
            raise ModelError("cross_zone_rate must lie in [0, 1]")
        if not (0.0 < self.inter_zone_factor <= 1.0):
            raise ModelError("inter_zone_factor must lie in (0, 1]")
        if not (0.0 <= self.heterogeneity < 1.0):
            raise ModelError("heterogeneity must lie in [0, 1)")

    def scaled(self, **overrides: object) -> "FleetScenario":
        """A copy with selected fields replaced (scaling knobs)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FleetString:
    """Compact machine-independent description of one application string.

    Per-machine execution times and utilizations are *not* stored; they
    are derived on demand from the fleet seed and the global ids (see
    :func:`materialize_string`).  Size is ``O(n_apps)``.
    """

    string_id: int
    n_apps: int
    worth: float
    period: float
    max_latency: float
    #: Nominal (machine-independent) execution times, shape ``(n_apps,)``.
    t_base: np.ndarray
    #: Nominal CPU utilizations, shape ``(n_apps,)``.
    u_base: np.ndarray
    #: Inter-application output sizes, shape ``(n_apps - 1,)``.
    output_sizes: np.ndarray
    #: Zone holding the string's data sources (its transfer affinity).
    home_zone: int
    #: Second zone the string's routes touch; equals ``home_zone`` for
    #: strings whose affinity is purely intra-zone.
    peer_zone: int


@dataclass(frozen=True)
class FleetWorkload:
    """A generated fleet: zone map plus compact per-string descriptions."""

    scenario: FleetScenario
    seed: int
    #: Global machine id -> zone index, shape ``(n_machines,)``.
    zone_of: np.ndarray
    strings: tuple[FleetString, ...]

    @property
    def n_machines(self) -> int:
        return int(self.zone_of.shape[0])

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    def zone_members(self, zone: int) -> np.ndarray:
        """Global machine ids belonging to ``zone`` (ascending)."""
        return np.flatnonzero(self.zone_of == zone)


def _zone_sizes(n_machines: int, n_zones: int) -> list[int]:
    """Deterministic near-even zone sizes (``np.array_split`` convention)."""
    q, r = divmod(n_machines, n_zones)
    return [q + 1] * r + [q] * (n_zones - r)


def _inv_bandwidth_estimate(scenario: FleetScenario) -> float:
    """Expected inverse route bandwidth over the zone mix.

    ``E[1/U(lo, hi)] = ln(hi/lo) / (hi - lo)``, combined across
    intra-zone links and inter-zone links (slower by
    ``inter_zone_factor``) weighted by the exact fraction of ordered
    machine pairs each kind contributes.  Deterministic per scenario —
    QoS bounds derived from it never depend on materialized subsets.
    """
    lo, hi = scenario.base.bandwidth_range
    e_inv = log(hi / lo) / (hi - lo) if hi > lo else 1.0 / lo
    M = scenario.n_machines
    if M < 2:
        return e_inv
    sizes = _zone_sizes(M, scenario.n_zones)
    intra_pairs = sum(s * (s - 1) for s in sizes)
    p_intra = intra_pairs / (M * (M - 1))
    return p_intra * e_inv + (1.0 - p_intra) * e_inv / scenario.inter_zone_factor


#: Strings per vectorized generation pass.  Bounds the per-pass table of
#: raw PCG64 outputs (``chunk x (3 * n_hi + 4)`` uint64) and its
#: temporaries: one pass over all of fleet-large's 10 000 strings was
#: slower and raised perfbench's ``peak_rss_mb`` from 126 to 144 MB.
_GEN_CHUNK = 1024


def generate_fleet(scenario: FleetScenario, seed: int) -> FleetWorkload:
    """Generate a fleet workload in ``O(n_machines + n_strings + transfers)``.

    Identical ``(scenario, seed)`` pairs produce byte-identical
    workloads, and — because all machine-dependent values hash global
    ids — byte-identical materializations for any machine subset.
    String ``k`` draws from its own stream,
    ``default_rng(SeedSequence((seed, _FLEET_TAG, _TAG_STRING, k)))``;
    the streams of up to :data:`_GEN_CHUNK` strings are drawn at once
    (:func:`_generate_strings`).
    """
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)):
        raise ModelError(f"fleet seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not (0 <= seed < 2**63):
        raise ModelError("fleet seed must satisfy 0 <= seed < 2**63")
    scn = scenario

    # Zone map: a seeded permutation chunked into near-even zones.
    zone_rng = np.random.default_rng(
        np.random.SeedSequence((seed, _FLEET_TAG, _TAG_ZONE))
    )
    perm = zone_rng.permutation(scn.n_machines)
    zone_of = np.empty(scn.n_machines, dtype=np.int64)
    start = 0
    for zone, size in enumerate(_zone_sizes(scn.n_machines, scn.n_zones)):
        zone_of[perm[start : start + size]] = zone
        start += size
    zone_of.setflags(write=False)

    inv_w_est = _inv_bandwidth_estimate(scn)
    strings: list[FleetString] = []
    for start in range(0, scn.n_strings, _GEN_CHUNK):
        ids = np.arange(start, min(start + _GEN_CHUNK, scn.n_strings))
        strings += _generate_strings(scn, seed, ids, inv_w_est)
    return FleetWorkload(
        scenario=scn, seed=seed, zone_of=zone_of, strings=tuple(strings)
    )


def _generate_strings(
    scn: FleetScenario, seed: int, ids: np.ndarray, inv_w_est: float
) -> list[FleetString]:
    """The strings ``ids``, each from its own stream, in one array pass.

    Row ``r`` makes exactly the ``Generator`` calls of one string's
    stream, in this order: ``n_apps = integers(n_lo, n_hi + 1)``;
    ``t_base``, ``u_base`` and ``output_sizes`` as ``uniform`` arrays of
    ``n_apps``, ``n_apps`` and ``n_apps - 1`` values; ``worth =
    choice(worth_choices)``; ``uniform`` µ for latency, then period;
    ``home_zone = integers(n_zones)``; and, when ``n_zones > 1``, a
    cross-zone coin ``uniform() < cross_zone_rate`` that on success
    draws ``peer_zone = (home_zone + 1 + integers(n_zones - 1)) %
    n_zones``.
    """
    params = scn.base
    n_lo, n_hi = params.apps_per_string
    st = Streams(
        *seed_states((seed, _FLEET_TAG, _TAG_STRING), ids), width=3 * n_hi + 4
    )
    n_apps = n_lo + st.bounded(n_hi - n_lo + 1)
    t_base = st.uniform(*params.comp_time_range, n_apps)
    u_base = st.uniform(*params.cpu_util_range, n_apps)
    output_sizes = st.uniform(*params.output_size_range, n_apps - 1)
    worth = np.asarray(params.worth_choices)[st.bounded(len(params.worth_choices))]
    mu_latency = st.uniform(*params.latency_mu)[:, 0]
    mu_period = st.uniform(*params.period_mu)[:, 0]
    home_zone = st.bounded(scn.n_zones)
    peer_zone = home_zone.copy()
    if scn.n_zones > 1:
        cross = np.flatnonzero(st.doubles(1)[:, 0] < scn.cross_zone_rate)
        offset = 1 + st.bounded(scn.n_zones - 1, cross)
        peer_zone[cross] = (home_zone[cross] + offset) % scn.n_zones

    # Section-8 QoS bounds on the *nominal* path, with the expected
    # inverse bandwidth standing in for the network average so the
    # bounds are machine-subset independent.  Each n_apps group is cut
    # into contiguous (group, n) blocks: numpy sums each row of such a
    # block exactly as it sums that row on its own, and every string
    # keeps read-only views of its rows, with no padding.
    max_latency = np.empty(ids.shape)
    period = np.empty(ids.shape)
    views: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for n in range(n_lo, n_hi + 1):
        rows = np.flatnonzero(n_apps == n)
        if not rows.size:
            continue
        t = t_base[rows, :n]
        u = u_base[rows, :n]
        o = output_sizes[rows, : n - 1]
        transfer_av = o * inv_w_est
        max_latency[rows] = mu_latency[rows] * (
            t.sum(axis=1) + transfer_av.sum(axis=1)
        )
        stage_max = t.max(axis=1)
        if n > 1:
            stage_max = np.maximum(stage_max, transfer_av.max(axis=1))
        period[rows] = mu_period[rows] * stage_max
        for block in (t, u, o):
            block.setflags(write=False)
        views.update(zip(rows.tolist(), zip(t, u, o)))

    return [
        FleetString(
            string_id=k,
            n_apps=n,
            worth=float(w),
            period=p,
            max_latency=lat,
            t_base=t,
            u_base=u,
            output_sizes=o,
            home_zone=h,
            peer_zone=z,
        )
        for k, n, w, p, lat, h, z, (t, u, o) in zip(
            ids.tolist(),
            n_apps.tolist(),
            worth.tolist(),
            period.tolist(),
            max_latency.tolist(),
            home_zone.tolist(),
            peer_zone.tolist(),
            [views[r] for r in range(len(ids))],
        )
    ]


def _bandwidth_submatrix(
    workload: FleetWorkload, machine_ids: np.ndarray
) -> np.ndarray:
    """Dense route bandwidths for a machine subset, ``O(m²)`` in the subset.

    Each ordered global pair ``(j1, j2)`` gets an independent uniform
    draw from the scenario's bandwidth range via the counter-based hash,
    scaled by ``inter_zone_factor`` when the endpoints sit in different
    zones.  The diagonal is infinite (paper convention).
    """
    scn = workload.scenario
    lo, hi = scn.base.bandwidth_range
    j1 = machine_ids[:, None]
    j2 = machine_ids[None, :]
    u = _hash_uniform(workload.seed, _FLEET_TAG, _TAG_BANDWIDTH, j1, j2)
    bw = lo + (hi - lo) * u
    zones = workload.zone_of[machine_ids]
    cross = zones[:, None] != zones[None, :]
    bw = np.where(cross, bw * scn.inter_zone_factor, bw)
    np.fill_diagonal(bw, np.inf)
    return bw


def materialize_string(
    workload: FleetWorkload,
    global_string_id: int,
    machine_ids: Sequence[int] | np.ndarray,
    *,
    local_id: int | None = None,
) -> AppString:
    """Densify one string's per-machine tables for a machine subset.

    Execution times and CPU utilizations are the string's nominal values
    under a multiplicative jitter in ``[1 - h, 1 + h]`` hashed from
    ``(seed, string, app, machine)`` global ids — so row ``i`` / machine
    ``j`` is identical no matter which subset (or ordering) of machines
    is materialized alongside it.  ``local_id`` renumbers the string for
    a shard-local :class:`SystemModel` (defaults to the global id).
    """
    scn = workload.scenario
    spec = workload.strings[global_string_id]
    ids = np.asarray(machine_ids, dtype=np.int64)
    h = scn.heterogeneity
    i = np.arange(spec.n_apps, dtype=np.int64)[:, None]
    j = ids[None, :]
    jit_t = 1.0 - h + 2.0 * h * _hash_uniform(
        workload.seed, _FLEET_TAG, _TAG_COMP, spec.string_id, i, j
    )
    jit_u = 1.0 - h + 2.0 * h * _hash_uniform(
        workload.seed, _FLEET_TAG, _TAG_UTIL, spec.string_id, i, j
    )
    comp_times = spec.t_base[:, None] * jit_t
    cpu_utils = np.minimum(1.0, spec.u_base[:, None] * jit_u)
    return AppString(
        string_id=spec.string_id if local_id is None else local_id,
        worth=spec.worth,
        period=spec.period,
        max_latency=spec.max_latency,
        comp_times=comp_times,
        cpu_utils=cpu_utils,
        output_sizes=np.array(spec.output_sizes, copy=True),
    )


def materialize_model(
    workload: FleetWorkload,
    machine_ids: Sequence[int] | np.ndarray,
    string_ids: Sequence[int],
    *,
    force: bool = False,
) -> SystemModel:
    """Build a shard-local :class:`SystemModel` for a fleet subset.

    Strings are renumbered ``0..len(string_ids)-1`` in the given order
    (the caller keeps the global-id mapping); machines map to local
    column ``p`` for ``machine_ids[p]``.  Refuses subsets larger than
    :data:`MONOLITHIC_LIMIT` machines unless ``force=True`` — the dense
    network is ``O(m²)`` and fleet-scale solves should shard instead.
    """
    ids = np.asarray(machine_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ModelError("machine_ids must be a non-empty 1-D sequence")
    if ids.size > MONOLITHIC_LIMIT and not force:
        raise ModelError(
            f"materializing {ids.size} machines exceeds MONOLITHIC_LIMIT="
            f"{MONOLITHIC_LIMIT}; shard the fleet (or pass force=True)"
        )
    if len(set(ids.tolist())) != ids.size:
        raise ModelError("machine_ids must be distinct")
    if ids.min() < 0 or ids.max() >= workload.n_machines:
        raise ModelError("machine_ids out of range for this fleet")

    network = Network(_bandwidth_submatrix(workload, ids))
    return SystemModel(network, _materialize_strings(workload, ids, string_ids))


#: Strings per batched jitter tensor — bounds the ``(strings, n_apps, m)``
#: temporaries to a few MB even for forced monolithic materializations.
_BATCH_CHUNK = 1024


def _materialize_strings(
    workload: FleetWorkload,
    machine_ids: np.ndarray,
    string_ids: Sequence[int],
) -> list[AppString]:
    """Batched :func:`materialize_string` for a whole string subset.

    Strings of equal ``n_apps`` form a group, and each group's tables
    are built in one broadcast: the ``(string, app, machine)`` jitter
    hashes, ``comp_times``, ``cpu_utils`` and ``work``, and the IMR
    constants :class:`~repro.core.model.AppString` would otherwise
    derive one string at a time — the eq. 8–9 averages, intensity, its
    stable descending order, the share rows and the transfer demand.
    Every operation is elementwise or a reduction over the contiguous
    last axis, which numpy performs row by row exactly as it does for
    one string's own array, so each value is bit-identical to the
    per-string path; each string adopts views of its group's rows.
    """
    out: list[AppString] = [None] * len(string_ids)  # type: ignore[list-item]
    for start in range(0, len(string_ids), _BATCH_CHUNK):
        chunk = string_ids[start : start + _BATCH_CHUNK]
        specs = [workload.strings[gid] for gid in chunk]
        n_apps = np.fromiter((s.n_apps for s in specs), np.int64, len(specs))
        for n in range(int(n_apps.min()), int(n_apps.max()) + 1):
            rows = np.flatnonzero(n_apps == n).tolist()
            if rows:
                local = [start + r for r in rows]
                group = [specs[r] for r in rows]
                for p, s in zip(
                    local,
                    _materialize_group(workload, machine_ids, local, group, n),
                ):
                    out[p] = s
    return out


def _materialize_group(
    workload: FleetWorkload,
    machine_ids: np.ndarray,
    local_ids: list[int],
    specs: list[FleetString],
    n: int,
) -> list[AppString]:
    """The :class:`AppString` of each of ``specs`` (all of ``n`` apps),
    numbered ``local_ids``."""
    h = workload.scenario.heterogeneity
    k = np.fromiter((s.string_id for s in specs), np.int64, len(specs))
    cells = (k[:, None, None], np.arange(n)[None, :, None], machine_ids)
    jit_t = 1.0 - h + 2.0 * h * _hash_uniform(
        workload.seed, _FLEET_TAG, _TAG_COMP, *cells
    )
    jit_u = 1.0 - h + 2.0 * h * _hash_uniform(
        workload.seed, _FLEET_TAG, _TAG_UTIL, *cells
    )
    t_base = np.stack([s.t_base for s in specs])
    u_base = np.stack([s.u_base for s in specs])
    period = np.fromiter((s.period for s in specs), np.float64, len(specs))

    comp_times = t_base[:, :, None] * jit_t
    cpu_utils = np.minimum(1.0, u_base[:, :, None] * jit_u)
    work = comp_times * cpu_utils
    avg_comp = comp_times.mean(axis=2)
    avg_util = cpu_utils.mean(axis=2)
    intensity = avg_comp * avg_util / period[:, None]
    arrays = (comp_times, cpu_utils, work, avg_comp, avg_util, intensity)
    for arr in arrays:
        arr.setflags(write=False)
    share_rows = (work / period[:, None, None]).tolist()
    order = np.argsort(-intensity, axis=1, kind="stable").tolist()
    if n > 1:
        outputs = np.stack([s.output_sizes for s in specs])
        demand = (outputs / period[:, None]).tolist()
    else:
        demand = [[] for _ in specs]
    # _attach adopts the (freshly built, canonical float64) rows without
    # re-validation; output_sizes is the spec's own read-only array,
    # shared across materializations.
    return [
        AppString._attach(
            local,
            spec.worth,
            spec.period,
            spec.max_latency,
            ct,
            cu,
            spec.output_sizes,
            w,
            t_av,
            u_av,
            inten,
            (sh, d, o),
        )
        for local, spec, ct, cu, w, t_av, u_av, inten, sh, d, o in zip(
            local_ids, specs, *arrays, share_rows, demand, order
        )
    ]


#: CI/test-sized fleet: small enough to materialize monolithically.
FLEET_SMOKE = FleetScenario(
    name="fleet-smoke",
    description="24 machines in 6 zones, 96 strings — CI smoke scale.",
    n_machines=24,
    n_strings=96,
    n_zones=6,
    cross_zone_rate=0.25,
)

#: The 10²-machine scenario (tests pin its K = 1, 2, 4, 8 solves).  Strings
#: are lightweight sensor/processing chains (CPU demand well below one
#: machine) so fleet capacity, not single-string feasibility, is the
#: binding constraint — the regime where sharding is the right call.
FLEET_BENCH = FleetScenario(
    name="fleet-bench",
    description="100 machines in 16 zones, 2000 strings — BENCH_fleet scale.",
    n_machines=100,
    n_strings=2000,
    n_zones=16,
    cross_zone_rate=0.2,
    base=ScenarioParameters(
        name="fleet-bench-base",
        description="lightweight per-string ranges for the fleet bench",
        n_strings=1,
        cpu_util_range=(0.035, 0.35),
        latency_mu=(4.0, 6.0),
        period_mu=(3.0, 4.5),
    ),
)

#: North-star scale: generation stays O(strings); never densify whole.
FLEET_LARGE = FleetScenario(
    name="fleet-large",
    description="1000 machines in 64 zones, 10000 strings — generation-scale.",
    n_machines=1000,
    n_strings=10_000,
    n_zones=64,
    cross_zone_rate=0.1,
)

FLEET_SCENARIOS: dict[str, FleetScenario] = {
    s.name: s for s in (FLEET_SMOKE, FLEET_BENCH, FLEET_LARGE)
}


def get_fleet_scenario(name: str) -> FleetScenario:
    """Look up a fleet scenario by name ('fleet-smoke' | 'fleet-bench' | ...)."""
    try:
        return FLEET_SCENARIOS[name]
    except KeyError:
        raise ModelError(
            f"unknown fleet scenario {name!r}; choose from {sorted(FLEET_SCENARIOS)}"
        ) from None
