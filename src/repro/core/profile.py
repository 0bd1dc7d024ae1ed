"""Memoized, vectorized per-(string, assignment) resource profiles.

Projecting a permutation into the solution space re-derives, for every
string it touches, the same per-resource quantities: the stage-1 load the
string places on each machine and route, the largest nominal time on each
resource (the binding term of the eq. 5–6 throughput checks), how many of
its applications/transfers use each resource, the nominal end-to-end
path time, and the tightness priority key.  All of those are a pure
function of ``(string, assignment)`` — they do not depend on what else is
mapped — so the GENITOR search, which re-derives identical IMR
assignments across thousands of chromosomes, recomputes identical
profiles over and over.

This module factors that immutable part out of
:class:`~repro.core.state.AllocationState`:

* :class:`StringProfile` — the frozen per-resource quantities;
* :func:`compute_profile` — ``np.unique``/``np.bincount`` kernels
  replacing the per-application Python loops (bit-identical accumulation
  order per resource: weights are summed in application order, exactly
  like the loops they replace);
* :class:`ProfileCache` — a bounded model-scoped memo keyed on
  ``(string_id, assignment bytes)`` with LRU eviction and hit statistics.

The mutable interference terms (``H``, ``wait_sum``) stay in the
allocation state; a profile can therefore be shared freely between
states, snapshots, and worker processes.
"""

from __future__ import annotations

import numpy as np

from .exceptions import AllocationError
from .model import SystemModel
from .tightness import priority_key
from .types import FloatArray, IntArray, IntVectorLike

__all__ = ["StringProfile", "ProfileCache", "compute_profile"]

Route = tuple[int, int]


class StringProfile:
    """Immutable per-resource quantities of one (string, assignment) pair.

    Attributes
    ----------
    machines:
        The assignment (machine index per application), read-only.
    key:
        Tightness priority key (larger = higher priority).
    tightness:
        The scalar tightness component of ``key`` (eq. 4), duplicated so
        the batched kernel can compare priorities without unpacking
        tuples.
    period / max_latency:
        The string's QoS parameters, copied for locality.
    nominal_path:
        Unshared end-to-end time under this assignment (eq. 4 numerator).
    m_load / m_tmax / m_count:
        Per-machine stage-1 load, largest nominal execution time, and
        application count (machine index -> value).  Built lazily on
        first access from the fused-axis arrays below (the scalar
        kernel walks the dicts; the batched kernel never pays for
        them).
    r_load / r_tmax / r_count:
        The same per inter-machine route ``(j1, j2)``, also lazy.
        Intra-machine transfers ride infinite bandwidth and are
        excluded entirely.
    res_idx / res_load / res_tmax / res_count:
        The same quantities flattened onto the *fused resource axis* used
        by the batched feasibility kernel
        (:mod:`repro.core.state_batch`): machine ``j`` is resource ``j``,
        inter-machine route ``(j1, j2)`` is resource
        ``M + j1 * M + j2``.  ``res_idx`` lists the touched resources —
        machines ascending, then routes ascending by flat id — and the
        value vectors are aligned with it.  The entries are bit-identical
        to the dict values (both come from the same ``bincount`` /
        ``maximum.at`` kernels).
    """

    __slots__ = (
        "machines",
        "key",
        "tightness",
        "period",
        "max_latency",
        "nominal_path",
        "n_machines",
        "res_idx",
        "res_load",
        "res_tmax",
        "res_count",
        "_dicts",
    )

    def __init__(
        self,
        machines: IntArray,
        key: tuple[float, int],
        period: float,
        max_latency: float,
        nominal_path: float,
        n_machines: int,
        res_idx: IntArray,
        res_load: FloatArray,
        res_tmax: FloatArray,
        res_count: FloatArray,
    ) -> None:
        self.machines = machines
        self.key = key
        self.tightness = key[0]
        self.period = period
        self.max_latency = max_latency
        self.nominal_path = nominal_path
        self.n_machines = n_machines
        for arr in (res_idx, res_load, res_tmax, res_count):
            arr.setflags(write=False)
        self.res_idx = res_idx
        self.res_load = res_load
        self.res_tmax = res_tmax
        self.res_count = res_count
        self._dicts: (
            tuple[
                dict[int, float],
                dict[int, float],
                dict[int, int],
                dict[Route, float],
                dict[Route, float],
                dict[Route, int],
            ]
            | None
        ) = None

    def _build_dicts(
        self,
    ) -> tuple[
        dict[int, float],
        dict[int, float],
        dict[int, int],
        dict[Route, float],
        dict[Route, float],
        dict[Route, int],
    ]:
        """Materialize the per-machine / per-route dict views once.

        ``res_idx`` lists machines (ascending) before routes (ascending
        flat id), so the split point is the first index >= n_machines.
        The values are the exact fused-axis entries — the dicts are
        bit-identical to the eager construction they replace.
        """
        dicts = self._dicts
        if dicts is None:
            M = self.n_machines
            nm = int(np.searchsorted(self.res_idx, M))
            m_idx = self.res_idx[:nm]
            m_load = {
                int(j): float(v) for j, v in zip(m_idx, self.res_load[:nm])
            }
            m_tmax = {
                int(j): float(v) for j, v in zip(m_idx, self.res_tmax[:nm])
            }
            m_count = {
                int(j): int(c) for j, c in zip(m_idx, self.res_count[:nm])
            }
            pair = self.res_idx[nm:] - M
            routes = [(int(p) // M, int(p) % M) for p in pair]
            r_load = {
                r: float(v) for r, v in zip(routes, self.res_load[nm:])
            }
            r_tmax = {
                r: float(v) for r, v in zip(routes, self.res_tmax[nm:])
            }
            r_count = {
                r: int(c) for r, c in zip(routes, self.res_count[nm:])
            }
            dicts = (m_load, m_tmax, m_count, r_load, r_tmax, r_count)
            self._dicts = dicts
        return dicts

    @property
    def m_load(self) -> dict[int, float]:
        return self._build_dicts()[0]

    @property
    def m_tmax(self) -> dict[int, float]:
        return self._build_dicts()[1]

    @property
    def m_count(self) -> dict[int, int]:
        return self._build_dicts()[2]

    @property
    def r_load(self) -> dict[Route, float]:
        return self._build_dicts()[3]

    @property
    def r_tmax(self) -> dict[Route, float]:
        return self._build_dicts()[4]

    @property
    def r_count(self) -> dict[Route, int]:
        return self._build_dicts()[5]

    def __repr__(self) -> str:
        nm = int(np.searchsorted(self.res_idx, self.n_machines))
        return (
            f"StringProfile(n_apps={self.machines.size}, "
            f"machines={nm}, routes={self.res_idx.size - nm})"
        )


def _normalize_assignment(
    model: SystemModel, string_id: int, machines: IntVectorLike
) -> IntArray:
    """Validate and canonicalize an assignment vector (contiguous int64)."""
    s = model.strings[string_id]
    m = np.ascontiguousarray(machines, dtype=np.int64)
    if m.shape != (s.n_apps,):
        raise AllocationError(
            f"string {string_id}: assignment length {m.shape} != "
            f"({s.n_apps},)"
        )
    if m.size and (m.min() < 0 or m.max() >= model.n_machines):
        raise AllocationError(
            f"string {string_id}: machine index out of range"
        )
    return m


#: Assignments at or below this length take the scalar bucket path —
#: for the paper's string sizes the per-call NumPy dispatch overhead of
#: the vector kernels dominates their arithmetic.
_SCALAR_MAX_APPS = 32


def compute_profile(
    model: SystemModel, string_id: int, machines: IntVectorLike
) -> StringProfile:
    """Profile of one candidate assignment (scalar or vector kernel).

    Short strings (the paper's regime) bucket per-machine and per-route
    quantities in a plain Python loop over cached ``tolist()`` constants;
    long ones run through ``np.unique(return_inverse=True)`` +
    ``np.bincount`` / ``np.maximum.at``.  Both accumulate weights in
    application order within each bucket and reduce path sums with the
    same NumPy kernel, so the two paths are bit-identical (covered by
    tests).
    """
    m = _normalize_assignment(model, string_id, machines)
    s = model.strings[string_id]
    if s.n_apps <= _SCALAR_MAX_APPS:
        return _profile_scalar(model, string_id, m)
    return _profile_vector(model, string_id, m)


def _profile_scalar(
    model: SystemModel, string_id: int, m: IntArray
) -> StringProfile:
    """Scalar bucket kernel over cached Python-list model constants.

    ``share_rows`` / ``transfer_demand`` (:meth:`AppString.imr_lists`),
    ``comp_rows`` / ``output_list`` (:meth:`AppString.profile_rows`) and
    ``inv_bandwidth_rows`` hold the identical doubles the vector path
    gathers, and the dict accumulation below adds them in application
    order — the same order ``np.bincount`` sums each bucket.  Path sums
    still go through ``np.add.reduce`` so their pairwise order matches
    ``ndarray.sum`` exactly.
    """
    s = model.strings[string_id]
    n = s.n_apps
    n_mach = model.n_machines
    m_list: list[int] = m.tolist()
    share_rows, transfer_demand, _ = s.imr_lists()
    comp_rows, output_list = s.profile_rows()

    mload: dict[int, float] = {}
    mtmax: dict[int, float] = {}
    mcount: dict[int, int] = {}
    t_list: list[float] = []
    for i in range(n):
        j = m_list[i]
        ti = comp_rows[i][j]
        t_list.append(ti)
        if j in mload:
            mload[j] += share_rows[i][j]
            if ti > mtmax[j]:
                mtmax[j] = ti
            mcount[j] += 1
        else:
            mload[j] = share_rows[i][j]
            mtmax[j] = ti
            mcount[j] = 1

    nominal = float(np.add.reduce(np.asarray(t_list)))
    rload: dict[int, float] = {}
    rtmax: dict[int, float] = {}
    rcount: dict[int, int] = {}
    if n > 1:
        inv_rows = model.network.inv_bandwidth_rows()
        times: list[float] = []
        for i in range(n - 1):
            a = m_list[i]
            b = m_list[i + 1]
            ibw = inv_rows[a][b]
            ti = output_list[i] * ibw
            times.append(ti)
            if a != b:
                pair = a * n_mach + b
                ru = transfer_demand[i] * ibw
                if pair in rload:
                    rload[pair] += ru
                    if ti > rtmax[pair]:
                        rtmax[pair] = ti
                    rcount[pair] += 1
                else:
                    rload[pair] = ru
                    rtmax[pair] = ti
                    rcount[pair] = 1
        nominal += float(np.add.reduce(np.asarray(times)))

    uniq_m = sorted(mload)
    uniq_r = sorted(rload)
    res_idx = np.array(
        uniq_m + [n_mach + p for p in uniq_r], dtype=np.int64
    )
    res_load = np.array(
        [mload[j] for j in uniq_m] + [rload[p] for p in uniq_r],
        dtype=np.float64,
    )
    res_tmax = np.array(
        [mtmax[j] for j in uniq_m] + [rtmax[p] for p in uniq_r],
        dtype=np.float64,
    )
    res_count = np.array(
        [mcount[j] for j in uniq_m] + [rcount[p] for p in uniq_r],
        dtype=np.float64,
    )

    tightness = nominal / s.max_latency
    m.setflags(write=False)
    return StringProfile(
        machines=m,
        key=priority_key(tightness, string_id),
        period=s.period,
        max_latency=s.max_latency,
        nominal_path=nominal,
        n_machines=n_mach,
        res_idx=res_idx,
        res_load=res_load,
        res_tmax=res_tmax,
        res_count=res_count,
    )


def _profile_vector(
    model: SystemModel, string_id: int, m: IntArray
) -> StringProfile:
    """Vectorized profile kernel (``np.unique`` + ``np.bincount``).

    ``bincount`` accumulates weights in application order within each
    bucket, so the sums are bit-identical to the loop formulation.
    """
    s = model.strings[string_id]
    net = model.network
    idx = np.arange(s.n_apps)
    t = s.comp_times[idx, m]
    shares = s.work[idx, m] / s.period

    uniq_m, inv_m = np.unique(m, return_inverse=True)
    loads = np.bincount(inv_m, weights=shares, minlength=uniq_m.size)
    counts = np.bincount(inv_m, minlength=uniq_m.size)
    tmax = np.zeros(uniq_m.size)
    np.maximum.at(tmax, inv_m, t)

    uniq_r = np.empty(0, dtype=np.int64)
    rloads = np.empty(0)
    rtmax = np.empty(0)
    rcounts = np.empty(0, dtype=np.int64)
    nominal = float(t.sum())
    if s.n_apps > 1:
        src, dst = m[:-1], m[1:]
        inv_bw = net.inv_bandwidth[src, dst]
        times = s.output_sizes * inv_bw
        nominal += float(times.sum())
        inter = src != dst  # intra-machine: infinite bandwidth, no load
        if inter.any():
            rs, rd = src[inter], dst[inter]
            route_util = (s.output_sizes[inter] / s.period) * inv_bw[inter]
            pair = rs * model.n_machines + rd
            uniq_r, inv_r = np.unique(pair, return_inverse=True)
            rloads = np.bincount(inv_r, weights=route_util,
                                 minlength=uniq_r.size)
            rcounts = np.bincount(inv_r, minlength=uniq_r.size)
            rtmax = np.zeros(uniq_r.size)
            np.maximum.at(rtmax, inv_r, times[inter])

    # Fused resource axis for the batched kernel: machine j is
    # resource j, route (j1, j2) is resource M + j1*M + j2.  Machines
    # first (ascending), then routes (ascending flat id) — the dict
    # views (scalar kernel only) derive lazily from these arrays.
    n_mach = model.n_machines
    res_idx = np.concatenate(
        [uniq_m.astype(np.int64), n_mach + uniq_r.astype(np.int64)]
    )
    res_load = np.concatenate([loads, rloads])
    res_tmax = np.concatenate([tmax, rtmax])
    res_count = np.concatenate(
        [counts.astype(np.float64), rcounts.astype(np.float64)]
    )

    tightness = nominal / s.max_latency
    m.setflags(write=False)
    return StringProfile(
        machines=m,
        key=priority_key(tightness, string_id),
        period=s.period,
        max_latency=s.max_latency,
        nominal_path=nominal,
        n_machines=n_mach,
        res_idx=res_idx,
        res_load=res_load,
        res_tmax=res_tmax,
        res_count=res_count,
    )


class ProfileCache:
    """Bounded LRU memo of :class:`StringProfile` per (string, assignment).

    Scope one cache to one :class:`~repro.core.model.SystemModel` (the
    key does not include the model): a GENITOR run shares a single cache
    across every chromosome projection, because the IMR is deterministic
    given the same intermediate state and re-derives identical
    assignments across chromosomes.

    Parameters
    ----------
    max_entries:
        Upper bound on stored profiles.  On overflow the least recently
        used entry is evicted (hits refresh recency).
    """

    __slots__ = ("_entries", "max_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: dict[tuple[int, bytes], StringProfile] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get_or_compute(
        self, model: SystemModel, string_id: int, machines: IntVectorLike
    ) -> StringProfile:
        """Memoized :func:`compute_profile` (validates the assignment).

        On a hit, range validation is skipped: the canonical-bytes key
        can only match an assignment of identical dtype, length, and
        values that was fully validated when the entry was stored (the
        shape check below rules out byte-equal reshapes).
        """
        m = np.ascontiguousarray(machines, dtype=np.int64)
        if m.shape != (model.strings[string_id].n_apps,):
            _normalize_assignment(model, string_id, m)  # raises
        key = (string_id, m.tobytes())
        profile = self._entries.pop(key, None)
        if profile is not None:
            self._entries[key] = profile  # refresh LRU position
            self.hits += 1
            return profile
        m = _normalize_assignment(model, string_id, m)
        self.misses += 1
        # The assignment is canonical now — dispatch straight to the
        # kernel instead of compute_profile's re-normalization.
        if model.strings[string_id].n_apps <= _SCALAR_MAX_APPS:
            profile = _profile_scalar(model, string_id, m)
        else:
            profile = _profile_vector(model, string_id, m)
        if len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = profile
        return profile

    def stats(self) -> dict[str, float]:
        """Counters for telemetry (JSON-serializable)."""
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
        }

    def __repr__(self) -> str:
        return (
            f"ProfileCache(entries={len(self._entries)}, "
            f"hit_rate={self.hit_rate:.3f})"
        )
