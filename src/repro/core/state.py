"""Incremental allocation state for sequential string allocation.

Every heuristic in the paper — IMR-driven MWF/TF and each GENITOR fitness
evaluation — allocates strings one at a time and re-validates the
two-stage feasibility analysis after each addition.  Re-running the
from-scratch analysis (:mod:`repro.core.feasibility`) after every string
would cost ``O(A²)`` per chromosome; this module maintains enough cached
state to make *try add one string* cost proportional to the resources the
string actually touches.

Cached per mapped string ``z`` and resource ``ρ`` (machine or route):

* ``load[z, ρ]`` — the string's stage-1 utilization contribution,
* ``tmax[z, ρ]`` — the largest nominal time of the string's
  applications/transfers on ``ρ`` (the binding one for throughput, since
  the waiting term of eqs. 5–6 is identical for every application of the
  same string on the same resource),
* ``count[z, ρ]`` — how many of the string's applications/transfers use
  ``ρ`` (weights the waiting term in the latency sum),
* ``H[z, ρ]`` — the total utilization of strictly-higher-priority strings
  on ``ρ`` (the aggregation identity of :mod:`repro.core.timing`), and
* ``wait_sum[z]`` — ``Σ_ρ count[z, ρ] · H[z, ρ]``, so the estimated
  end-to-end latency is ``nominal_path[z] + P[z] · wait_sum[z]``.

Adding a string of tightness ``T*`` only increases ``H`` for
lower-priority strings sharing one of its resources, so the incremental
check touches exactly those strings.  The test suite asserts that the
accept/reject decisions and all cached quantities agree with the
from-scratch analysis.

:class:`AllocationState` is the one feasibility kernel: one
``dict``-based record per mapped string plus sorted per-resource user
lists.  Its floating-point accumulations follow one canonical order —
interference ``H`` for a newly added string is derived from its
*priority predecessor* (``H[w] + load[w]`` for the lowest-priority user
``w`` above the new key), waiting terms accumulate over the touched
resources in the profile's key order (machines ascending, then routes
ascending), and per-user scans run in ascending string-id order — so a
seeded search reproduces its elites bit for bit.

The immutable part of the per-string record (loads, tmax, counts,
nominal path, priority key) lives in :class:`~repro.core.profile.StringProfile`
and can be memoized across states through a
:class:`~repro.core.profile.ProfileCache`; only the interference terms
(``H``, ``wait_sum``) are state-local.  :meth:`AllocationState.snapshot`
/ :meth:`AllocationState.restore` copy exactly that mutable core.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .allocation import Allocation
from .exceptions import AllocationError
from .feasibility import DEFAULT_TOL
from .metrics import Fitness
from .model import SystemModel
from .profile import ProfileCache, Route, StringProfile, compute_profile
from .types import FloatArray, IntArray, IntVectorLike

__all__ = [
    "AllocationState",
    "RecordAllocationState",
    "RejectionReason",
    "StateSnapshot",
]


@dataclass(frozen=True)
class RejectionReason:
    """Why :meth:`AllocationState.try_add` rejected a string."""

    stage: int
    kind: str
    where: str
    value: float
    bound: float

    def __str__(self) -> str:
        return (
            f"stage {self.stage} {self.kind} at {self.where}: "
            f"{self.value:.6g} > {self.bound:.6g}"
        )


@dataclass
class _StringRecord:
    """Per-string bookkeeping for a mapped string.

    ``profile`` is the immutable (shareable, possibly memoized) part;
    the interference terms below are the only state-local mutables.
    """

    profile: StringProfile
    H_m: dict[int, float] = field(default_factory=dict)
    H_r: dict[Route, float] = field(default_factory=dict)
    wait_sum: float = 0.0

    def clone(self) -> "_StringRecord":
        """Copy sharing the profile but owning the mutable terms."""
        return _StringRecord(
            profile=self.profile,
            H_m=dict(self.H_m),
            H_r=dict(self.H_r),
            wait_sum=self.wait_sum,
        )


class StateSnapshot:
    """Frozen copy of an allocation state's mutable core.

    Holds the utilization accumulators, per-string records (profiles
    shared, interference terms copied), and resource-user lists.  A
    snapshot is detached: mutating the originating state never changes
    it, and :meth:`AllocationState.restore` copies again, so one
    snapshot can seed any number of states.
    """

    __slots__ = (
        "machine_util",
        "route_util",
        "records",
        "machine_users",
        "route_users",
        "worth",
    )

    def __init__(
        self,
        machine_util: FloatArray,
        route_util: FloatArray,
        records: dict[int, _StringRecord],
        machine_users: list[list[int]],
        route_users: dict[Route, list[int]],
        worth: float,
    ) -> None:
        self.machine_util = machine_util
        self.route_util = route_util
        self.records = records
        self.machine_users = machine_users
        self.route_users = route_users
        self.worth = worth

    @property
    def n_strings(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"StateSnapshot(n_strings={self.n_strings}, "
            f"worth={self.worth:g})"
        )


class AllocationState:
    """Mutable allocation with O(touched-resources) feasibility updates.

    One :class:`_StringRecord` per mapped string plus ascending
    per-resource user lists.  All scalar accumulations follow the
    canonical order described in the module docstring.

    Parameters
    ----------
    model:
        The problem instance.
    tol:
        Relative tolerance for capacity/QoS comparisons (same meaning as
        in :mod:`repro.core.feasibility`).
    profile_cache:
        Optional model-scoped memo for the immutable per-(string,
        assignment) profiles.  Share one cache between states of the
        same model; never share across models.
    """

    def __init__(
        self,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        self.model = model
        self.tol = tol
        self.profile_cache = profile_cache
        self._worth = 0.0
        self._mapped_cache: tuple[int, ...] | None = None
        #: Diagnostic: why the most recent ``try_add`` failed (or None).
        self.last_rejection: RejectionReason | None = None
        M = model.n_machines
        #: Eq. (2) utilization per machine (running totals).
        self.machine_util: FloatArray = np.zeros(M)
        #: Eq. (3) utilization per route (running totals, diag always 0).
        self.route_util: FloatArray = np.zeros((M, M))
        self._records: dict[int, _StringRecord] = {}
        # resource -> ascending list of string ids using it
        self._machine_users: list[list[int]] = [[] for _ in range(M)]
        self._route_users: dict[Route, list[int]] = {}

    # -- read-only views -------------------------------------------------------

    @property
    def n_strings(self) -> int:
        return len(self._records)

    @property
    def mapped_ids(self) -> tuple[int, ...]:
        """Sorted ids of the mapped strings (cached between mutations)."""
        cached = self._mapped_cache
        if cached is None:
            cached = tuple(sorted(self._records))
            self._mapped_cache = cached
        return cached

    @property
    def total_worth(self) -> float:
        return self._worth

    def machines_for(self, string_id: int) -> IntArray:
        return self._records[string_id].profile.machines

    def __contains__(self, string_id: int) -> bool:
        return string_id in self._records

    def slackness(self) -> float:
        """Eq. (7) over the current utilization accumulators."""
        slack = 1.0 - float(self.machine_util.max(initial=0.0))
        M = self.model.n_machines
        off = self.route_util[~np.eye(M, dtype=bool)]
        if off.size:
            slack = min(slack, 1.0 - float(off.max()))
        return slack

    def fitness(self) -> Fitness:
        return Fitness(worth=self._worth, slackness=self.slackness())

    def as_allocation(self) -> Allocation:
        """Materialize the current mapping as an immutable Allocation."""
        return Allocation(
            self.model,
            {k: rec.profile.machines for k, rec in self._records.items()},
        )

    def estimated_latency(self, string_id: int) -> float:
        """Estimated end-to-end latency of a mapped string."""
        rec = self._records[string_id]
        return rec.profile.nominal_path + rec.profile.period * rec.wait_sum

    def interference_terms(
        self, string_id: int
    ) -> tuple[dict[int, float], dict[Route, float], float]:
        """``(H per machine, H per route, wait_sum)`` of a mapped string
        (introspection for tests and diagnostics)."""
        rec = self._records[string_id]
        return dict(rec.H_m), dict(rec.H_r), rec.wait_sum

    def machine_users(self, j: int) -> IntArray:
        """Ascending ids of mapped strings with applications on ``j``."""
        return np.asarray(self._machine_users[j], dtype=np.int64)

    def route_users(self, j1: int, j2: int) -> IntArray:
        """Ascending ids of mapped strings with transfers on the route."""
        return np.asarray(
            self._route_users.get((j1, j2), []), dtype=np.int64
        )

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """Detached copy of the mutable core (records share profiles).

        Cost is ``O(mapped strings × touched resources)`` — far cheaper
        than replaying the IMR + feasibility analysis that produced the
        state.
        """
        return StateSnapshot(
            machine_util=self.machine_util.copy(),
            route_util=self.route_util.copy(),
            records={k: rec.clone() for k, rec in self._records.items()},
            machine_users=[users.copy() for users in self._machine_users],
            route_users={r: users.copy() for r, users in self._route_users.items()},
            worth=self._worth,
        )

    def restore(self, snapshot: StateSnapshot) -> None:
        """Reset this state to ``snapshot`` (which stays reusable).

        The snapshot's arrays, records, and user lists are copied again
        so later mutations of this state never leak back into the
        snapshot — a cached snapshot can seed any number of states.
        """
        self.machine_util = snapshot.machine_util.copy()
        self.route_util = snapshot.route_util.copy()
        self._records = {k: rec.clone() for k, rec in snapshot.records.items()}
        self._machine_users = [users.copy() for users in snapshot.machine_users]
        self._route_users = {
            r: users.copy() for r, users in snapshot.route_users.items()
        }
        self._worth = snapshot.worth
        self._mapped_cache = None
        self.last_rejection = None

    # -- string profiling -------------------------------------------------------

    def _get_profile(
        self, string_id: int, machines: IntVectorLike
    ) -> StringProfile:
        """Profile for a candidate assignment (possibly memoized)."""
        if self.profile_cache is not None:
            return self.profile_cache.get_or_compute(
                self.model, string_id, machines
            )
        return compute_profile(self.model, string_id, machines)

    # -- the core operations -----------------------------------------------------

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
        """Add a string if the resulting mapping stays feasible.

        Runs the two-stage feasibility analysis incrementally.  On
        success the state is mutated and ``True`` returned; on failure
        the state is left untouched, ``False`` returned, and
        :attr:`last_rejection` describes the first violated constraint.
        """
        if string_id in self._records:
            raise AllocationError(f"string {string_id} is already mapped")
        self.last_rejection = None
        prof = self._get_profile(string_id, machines)
        rec = _StringRecord(profile=prof)
        tol = self.tol

        # ---- stage 1: capacity ---------------------------------------------
        for j, load in prof.m_load.items():
            if self.machine_util[j] + load > 1.0 + tol:
                self.last_rejection = RejectionReason(
                    1, "machine-capacity", f"machine {j}",
                    float(self.machine_util[j] + load), 1.0,
                )
                return False
        for (j1, j2), load in prof.r_load.items():
            if self.route_util[j1, j2] + load > 1.0 + tol:
                self.last_rejection = RejectionReason(
                    1, "route-capacity", f"route {j1}->{j2}",
                    float(self.route_util[j1, j2] + load), 1.0,
                )
                return False

        # ---- stage 2a: the new string under existing interference -----------
        # H for the new string comes from its *priority predecessor* w —
        # the lowest-priority user above the new key:  H = H[w] + load[w].
        key = prof.key
        for j in prof.m_load:
            pred: _StringRecord | None = None
            pred_key: tuple[float, int] | None = None
            for z in self._machine_users[j]:
                other = self._records[z]
                ok = other.profile.key
                if ok > key and (pred_key is None or ok < pred_key):
                    pred, pred_key = other, ok
            H = 0.0 if pred is None else pred.H_m[j] + pred.profile.m_load[j]
            rec.H_m[j] = H
            if prof.m_tmax[j] + prof.period * H > prof.period * (1.0 + tol):
                self.last_rejection = RejectionReason(
                    2, "throughput-comp",
                    f"string {string_id} on machine {j}",
                    prof.m_tmax[j] + prof.period * H, prof.period,
                )
                return False
        for r in prof.r_load:
            rpred: _StringRecord | None = None
            rpred_key: tuple[float, int] | None = None
            for z in self._route_users.get(r, ()):
                other = self._records[z]
                ok = other.profile.key
                if ok > key and (rpred_key is None or ok < rpred_key):
                    rpred, rpred_key = other, ok
            H = (
                0.0
                if rpred is None
                else rpred.H_r[r] + rpred.profile.r_load[r]
            )
            rec.H_r[r] = H
            if prof.r_tmax[r] + prof.period * H > prof.period * (1.0 + tol):
                self.last_rejection = RejectionReason(
                    2, "throughput-tran",
                    f"string {string_id} on route {r[0]}->{r[1]}",
                    prof.r_tmax[r] + prof.period * H, prof.period,
                )
                return False
        # Canonical accumulation: one sequential chain over touched
        # resources, machines (ascending) then routes (ascending).
        ws = 0.0
        for j in prof.m_load:
            ws += prof.m_count[j] * rec.H_m[j]
        for r in prof.r_load:
            ws += prof.r_count[r] * rec.H_r[r]
        rec.wait_sum = ws
        latency = prof.nominal_path + prof.period * rec.wait_sum
        if latency > prof.max_latency * (1.0 + tol):
            self.last_rejection = RejectionReason(
                2, "latency", f"string {string_id}", latency, prof.max_latency
            )
            return False

        # ---- stage 2b: existing lower-priority strings gain interference ----
        # Accumulate wait_sum increments per affected string; check each
        # resource-level throughput bound as we go.  User lists iterate
        # ascending, so the first-reported violator is canonical.
        wait_delta: dict[int, float] = {}
        h_m_delta: dict[tuple[int, int], float] = {}  # (string, machine)
        h_r_delta: dict[tuple[int, Route], float] = {}
        for j, load in prof.m_load.items():
            for z in self._machine_users[j]:
                other = self._records[z]
                op = other.profile
                if op.key >= key:
                    continue
                newH = other.H_m[j] + load
                if (
                    op.m_tmax[j] + op.period * newH
                    > op.period * (1.0 + tol)
                ):
                    self.last_rejection = RejectionReason(
                        2, "throughput-comp",
                        f"string {z} on machine {j}",
                        op.m_tmax[j] + op.period * newH, op.period,
                    )
                    return False
                h_m_delta[(z, j)] = load
                wait_delta[z] = wait_delta.get(z, 0.0) + op.m_count[j] * load
        for r, load in prof.r_load.items():
            for z in self._route_users.get(r, ()):
                other = self._records[z]
                op = other.profile
                if op.key >= key:
                    continue
                newH = other.H_r[r] + load
                if (
                    op.r_tmax[r] + op.period * newH
                    > op.period * (1.0 + tol)
                ):
                    self.last_rejection = RejectionReason(
                        2, "throughput-tran",
                        f"string {z} on route {r[0]}->{r[1]}",
                        op.r_tmax[r] + op.period * newH, op.period,
                    )
                    return False
                h_r_delta[(z, r)] = load
                wait_delta[z] = wait_delta.get(z, 0.0) + op.r_count[r] * load
        for z in sorted(wait_delta):
            other = self._records[z]
            op = other.profile
            new_latency = op.nominal_path + op.period * (
                other.wait_sum + wait_delta[z]
            )
            if new_latency > op.max_latency * (1.0 + tol):
                self.last_rejection = RejectionReason(
                    2, "latency", f"string {z}", new_latency, op.max_latency
                )
                return False

        # ---- commit ----------------------------------------------------------
        for j, load in prof.m_load.items():
            self.machine_util[j] += load
            insort(self._machine_users[j], string_id)
        for r, load in prof.r_load.items():
            self.route_util[r] += load
            users = self._route_users.get(r)
            if users is None:
                self._route_users[r] = [string_id]
            else:
                insort(users, string_id)
        for (z, j), load in h_m_delta.items():
            self._records[z].H_m[j] += load
        for (z, r), load in h_r_delta.items():
            self._records[z].H_r[r] += load
        for z, delta in wait_delta.items():
            self._records[z].wait_sum += delta
        self._records[string_id] = rec
        self._worth += self.model.strings[string_id].worth
        self._mapped_cache = None
        return True

    def remove(self, string_id: int) -> None:
        """Remove a mapped string, restoring all cached quantities.

        The inverse of a successful :meth:`try_add`; used by local-search
        extensions and by tests that verify the cache algebra.
        """
        rec = self._records.pop(string_id, None)
        if rec is None:
            raise AllocationError(f"string {string_id} is not mapped")
        prof = rec.profile
        key = prof.key
        for j, load in prof.m_load.items():
            self.machine_util[j] -= load
            self._machine_users[j].remove(string_id)
            for z in self._machine_users[j]:
                other = self._records[z]
                if other.profile.key < key:
                    other.H_m[j] -= load
                    other.wait_sum -= other.profile.m_count[j] * load
        for r, load in prof.r_load.items():
            self.route_util[r] -= load
            users = self._route_users.get(r)
            if users is not None:
                users.remove(string_id)
                for z in users:
                    other = self._records[z]
                    if other.profile.key < key:
                        other.H_r[r] -= load
                        other.wait_sum -= other.profile.r_count[r] * load
                if not users:
                    del self._route_users[r]
        self._worth -= self.model.strings[string_id].worth
        self._mapped_cache = None

    # -- queries used by the IMR --------------------------------------------------

    def machine_util_if(
        self, j: int, string_id: int, app_index: int, extra: float = 0.0
    ) -> float:
        """``U_machine[j, i, k]``: utilization of ``j`` if app ``i`` joins.

        ``extra`` lets the IMR account for applications of the same
        string already tentatively placed on ``j`` but not yet committed
        to the state.
        """
        s = self.model.strings[string_id]
        share = s.work[app_index, j] / s.period
        return float(self.machine_util[j] + extra + share)

    def route_util_if(
        self,
        j1: int,
        j2: int,
        string_id: int,
        transfer_index: int,
        extra: float = 0.0,
    ) -> float:
        """``U_route[j1, j2, i, k]``: route utilization if transfer joins.

        ``transfer_index`` is the index of the *sending* application;
        the transfer carries ``output_sizes[transfer_index]`` bytes.
        Intra-machine routes always report utilization 0.
        """
        if j1 == j2:
            return 0.0
        s = self.model.strings[string_id]
        demand = (
            s.output_sizes[transfer_index]
            / s.period
            * self.model.network.inv_bandwidth[j1, j2]
        )
        return float(self.route_util[j1, j2] + extra + demand)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_strings={self.n_strings}, "
            f"worth={self._worth:g}, slack={self.slackness():.4f})"
        )


#: The scalar kernel under its former backend name.  Only
#: ``perfbench/tracing.py`` still looks it up; the name goes once the
#: tracer reads built-in spans instead (the observability item of
#: ROADMAP.md).
RecordAllocationState = AllocationState
