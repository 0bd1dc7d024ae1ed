"""Memoized per-(string, assignment) resource profiles.

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

* :class:`StringProfile` — the frozen per-resource quantities, as
  plain dicts in a fixed key order;
* :func:`compute_profile` — one scalar bucket kernel over cached
  Python-list model constants (weights are summed in application order
  within each bucket);
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
from .types import IntArray, IntVectorLike

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
    period / max_latency:
        The string's QoS parameters, copied for locality.
    nominal_path:
        Unshared end-to-end time under this assignment (eq. 4 numerator).
    m_load / m_tmax / m_count:
        Per-machine stage-1 load, largest nominal execution time, and
        application count (machine index -> value), keyed in ascending
        machine order.
    r_load / r_tmax / r_count:
        The same per inter-machine route ``(j1, j2)``, keyed in
        ascending ``(j1, j2)`` order.  Intra-machine transfers ride
        infinite bandwidth and are excluded entirely.

    The key order is part of the contract: the feasibility kernel
    accumulates its waiting terms by iterating these dicts, so a fixed
    order keeps every floating-point sum reproducible.
    """

    __slots__ = (
        "machines",
        "key",
        "period",
        "max_latency",
        "nominal_path",
        "m_load",
        "m_tmax",
        "m_count",
        "r_load",
        "r_tmax",
        "r_count",
    )

    def __init__(
        self,
        machines: IntArray,
        key: tuple[float, int],
        period: float,
        max_latency: float,
        nominal_path: float,
        m_load: dict[int, float],
        m_tmax: dict[int, float],
        m_count: dict[int, int],
        r_load: dict[Route, float],
        r_tmax: dict[Route, float],
        r_count: dict[Route, int],
    ) -> None:
        self.machines = machines
        self.key = key
        self.period = period
        self.max_latency = max_latency
        self.nominal_path = nominal_path
        self.m_load = m_load
        self.m_tmax = m_tmax
        self.m_count = m_count
        self.r_load = r_load
        self.r_tmax = r_tmax
        self.r_count = r_count

    def __repr__(self) -> str:
        return (
            f"StringProfile(n_apps={self.machines.size}, "
            f"machines={len(self.m_load)}, routes={len(self.r_load)})"
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


def compute_profile(
    model: SystemModel, string_id: int, machines: IntVectorLike
) -> StringProfile:
    """Profile of one candidate assignment (validated first)."""
    m = _normalize_assignment(model, string_id, machines)
    return _build_profile(model, string_id, m)


def _build_profile(
    model: SystemModel, string_id: int, m: IntArray
) -> StringProfile:
    """Bucket per-machine and per-route quantities of a canonical
    assignment.

    Reads the cached Python-list model constants — ``share_rows`` /
    ``transfer_demand`` (:meth:`AppString.imr_lists`), ``comp_rows`` /
    ``output_list`` (:meth:`AppString.profile_rows`) and
    ``inv_bandwidth_rows`` — which hold the identical doubles of the
    NumPy arrays, and adds each bucket's weights in application order.
    Path sums go through ``np.add.reduce`` so their pairwise order
    matches ``ndarray.sum`` exactly.
    """
    s = model.strings[string_id]
    n = s.n_apps
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
    rload: dict[Route, float] = {}
    rtmax: dict[Route, float] = {}
    rcount: dict[Route, int] = {}
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
                r = (a, b)
                ru = transfer_demand[i] * ibw
                if r in rload:
                    rload[r] += ru
                    if ti > rtmax[r]:
                        rtmax[r] = ti
                    rcount[r] += 1
                else:
                    rload[r] = ru
                    rtmax[r] = ti
                    rcount[r] = 1
        nominal += float(np.add.reduce(np.asarray(times)))

    m_keys = sorted(mload)
    r_keys = sorted(rload)
    m.setflags(write=False)
    return StringProfile(
        machines=m,
        key=priority_key(nominal / s.max_latency, string_id),
        period=s.period,
        max_latency=s.max_latency,
        nominal_path=nominal,
        m_load={j: mload[j] for j in m_keys},
        m_tmax={j: mtmax[j] for j in m_keys},
        m_count={j: mcount[j] for j in m_keys},
        r_load={r: rload[r] for r in r_keys},
        r_tmax={r: rtmax[r] for r in r_keys},
        r_count={r: rcount[r] for r in r_keys},
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
        profile = _build_profile(model, string_id, m)
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
