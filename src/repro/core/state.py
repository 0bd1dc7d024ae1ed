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
``dict``-based record per mapped string plus per-resource user lists
kept in ascending priority-key order.  Its floating-point accumulations
follow one canonical order — interference ``H`` for a newly added string
is derived from its *priority predecessor* (``H[w] + load[w]`` for the
lowest-priority user ``w`` above the new key, found by bisection), and
waiting terms accumulate over the touched resources in the profile's
key order (machines ascending, then routes ascending) — so a seeded
search reproduces its elites bit for bit.  Every ``H`` and ``wait_sum``
is one addition per (string, resource), so the order in which a
resource's users are visited never changes a value: stage 2b and
:meth:`AllocationState.remove` walk only the lower-priority prefix of
each list, lowest priority first.  That walk order does decide which
violator :attr:`AllocationState.last_rejection` names when several
strings on one resource would break their throughput bound; the
accept/reject decision never depends on it.

The running eq. (2)/(3) utilizations are Python floats: one list per
machine and the route matrix twice, as row lists and as column lists.
Stage 1 of ``try_add``, its commit, :meth:`AllocationState.remove`,
:meth:`AllocationState.slackness` and the IMR's row and column reads
(:meth:`AllocationState.route_row` / :meth:`AllocationState.route_col`)
therefore touch no NumPy scalars; each value is the same sequence of
IEEE-754 additions a NumPy accumulator would hold.
:attr:`AllocationState.machine_util` and
:attr:`AllocationState.route_util` stay available as read-only array
copies for callers that want arrays.

The immutable part of the per-string record (loads, tmax, counts,
nominal path, priority key) lives in :class:`~repro.core.profile.StringProfile`
and can be memoized across states through a
:class:`~repro.core.profile.ProfileCache`; only the interference terms
(``H``, ``wait_sum``) are state-local.  :meth:`AllocationState.snapshot`
/ :meth:`AllocationState.restore` copy exactly that mutable core.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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

#: A string's priority key ``(tightness, -string_id)`` (larger = higher
#: priority); unique per string, so it also names the string.
PriorityKey = tuple[float, int]


def _ascending_ids(keys: list[PriorityKey]) -> IntArray:
    """The string ids of a key-ordered user list, ascending."""
    return np.sort(
        np.fromiter((-k[1] for k in keys), dtype=np.int64, count=len(keys))
    )


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


@dataclass(slots=True)
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
        "machine_loads",
        "route_rows",
        "records",
        "machine_users",
        "route_users",
        "worth",
    )

    def __init__(
        self,
        machine_loads: list[float],
        route_rows: list[list[float]],
        records: dict[int, _StringRecord],
        machine_users: list[list[PriorityKey]],
        route_users: dict[Route, list[PriorityKey]],
        worth: float,
    ) -> None:
        self.machine_loads = machine_loads
        self.route_rows = route_rows
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

    One :class:`_StringRecord` per mapped string plus per-resource
    user lists in ascending priority-key order.  All scalar
    accumulations follow the canonical order described in the module
    docstring.

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
        # Eq. (2) utilization per machine and eq. (3) per route (running
        # totals; the route diagonal stays 0.0), as Python floats.  The
        # route matrix is kept twice, by row and by column, so the IMR
        # reads either without copying.
        self._mu: list[float] = [0.0] * M
        self._ru_rows: list[list[float]] = [[0.0] * M for _ in range(M)]
        self._ru_cols: list[list[float]] = [[0.0] * M for _ in range(M)]
        self._records: dict[int, _StringRecord] = {}
        # resource -> ascending priority keys of the strings using it
        # (a key ``(tightness, -id)`` names its string)
        self._machine_users: list[list[PriorityKey]] = [[] for _ in range(M)]
        self._route_users: dict[Route, list[PriorityKey]] = {}

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

    @property
    def machine_util(self) -> FloatArray:
        """Eq. (2) utilization per machine, as a read-only array copy."""
        out = np.array(self._mu)
        out.setflags(write=False)
        return out

    @property
    def route_util(self) -> FloatArray:
        """Eq. (3) utilization per route ``(M, M)``, as a read-only array
        copy (the diagonal is always 0)."""
        out = np.array(self._ru_rows)
        out.setflags(write=False)
        return out

    def machine_loads(self) -> list[float]:
        """The live per-machine utilization list (do not mutate)."""
        return self._mu

    def route_row(self, j: int) -> list[float]:
        """The live utilization list of every route out of ``j``
        (``route_row(j)[b] == route_util[j, b]``; do not mutate)."""
        return self._ru_rows[j]

    def route_col(self, j: int) -> list[float]:
        """The live utilization list of every route into ``j``
        (``route_col(j)[a] == route_util[a, j]``; do not mutate)."""
        return self._ru_cols[j]

    def slackness(self) -> float:
        """Eq. (7) over the current utilization accumulators.

        ``1 - max`` over the machines and the off-diagonal routes, with
        0 as the floor: the route diagonal is exactly 0.0, and
        ``1.0 - x`` is monotone in ``x``, so this equals the minimum of
        the per-resource slacks bit for bit.
        """
        peak = max(0.0, max(self._mu), max(map(max, self._ru_rows)))
        return 1.0 - peak

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
        return _ascending_ids(self._machine_users[j])

    def route_users(self, j1: int, j2: int) -> IntArray:
        """Ascending ids of mapped strings with transfers on the route."""
        return _ascending_ids(self._route_users.get((j1, j2), []))

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """Detached copy of the mutable core (records share profiles).

        Cost is ``O(mapped strings × touched resources)`` — far cheaper
        than replaying the IMR + feasibility analysis that produced the
        state.
        """
        return StateSnapshot(
            machine_loads=self._mu.copy(),
            route_rows=[row.copy() for row in self._ru_rows],
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
        self._mu = snapshot.machine_loads.copy()
        self._ru_rows = [row.copy() for row in snapshot.route_rows]
        self._ru_cols = [list(col) for col in zip(*snapshot.route_rows)]
        self._records = {k: rec.clone() for k, rec in snapshot.records.items()}
        self._machine_users = [users.copy() for users in snapshot.machine_users]
        self._route_users = {
            r: users.copy() for r, users in snapshot.route_users.items()
        }
        self._worth = snapshot.worth
        self._mapped_cache = None
        self.last_rejection = None

    # -- the core operations -----------------------------------------------------

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
        """Add a string if the resulting mapping stays feasible.

        Runs the two-stage feasibility analysis incrementally.  On
        success the state is mutated and ``True`` returned; on failure
        the state is left untouched, ``False`` returned, and
        :attr:`last_rejection` describes the first violated constraint
        found (stage by stage, resources in key order, and on one
        resource the lowest-priority violator first).
        """
        if string_id in self._records:
            raise AllocationError(f"string {string_id} is already mapped")
        self.last_rejection = None
        cache = self.profile_cache
        if cache is None:
            prof = compute_profile(self.model, string_id, machines)
        else:
            prof = cache.get_or_compute(self.model, string_id, machines)
        rec = _StringRecord(prof)
        cap = 1.0 + self.tol

        # ---- stage 1: capacity ---------------------------------------------
        mu = self._mu
        ru_rows = self._ru_rows
        for j, load in prof.m_load.items():
            if mu[j] + load > cap:
                self.last_rejection = RejectionReason(
                    1, "machine-capacity", f"machine {j}", mu[j] + load, 1.0
                )
                return False
        for (j1, j2), load in prof.r_load.items():
            if ru_rows[j1][j2] + load > cap:
                self.last_rejection = RejectionReason(
                    1, "route-capacity", f"route {j1}->{j2}",
                    ru_rows[j1][j2] + load, 1.0,
                )
                return False

        # ---- stage 2a: the new string under existing interference -----------
        # H for the new string comes from its *priority predecessor* w —
        # the lowest-priority user above the new key:  H = H[w] + load[w].
        # User lists ascend by key, so w sits at the insertion point and
        # every user before it has lower priority.
        key = prof.key
        period = prof.period
        bound = period * cap
        records = self._records
        machine_users = self._machine_users
        m_tmax = prof.m_tmax
        rec_H_m = rec.H_m
        m_lower: list[tuple[int, float, list[PriorityKey]]] = []
        for j, load in prof.m_load.items():
            users = machine_users[j]
            at = bisect_right(users, key)
            if at < len(users):
                pred = records[-users[at][1]]
                H = pred.H_m[j] + pred.profile.m_load[j]
            else:
                H = 0.0
            rec_H_m[j] = H
            if m_tmax[j] + period * H > bound:
                self.last_rejection = RejectionReason(
                    2, "throughput-comp",
                    f"string {string_id} on machine {j}",
                    m_tmax[j] + period * H, period,
                )
                return False
            if at:
                m_lower.append((j, load, users[:at]))
        route_users = self._route_users
        r_tmax = prof.r_tmax
        rec_H_r = rec.H_r
        r_lower: list[tuple[Route, float, list[PriorityKey]]] = []
        for r, load in prof.r_load.items():
            users = route_users.get(r, [])
            at = bisect_right(users, key)
            if at < len(users):
                rpred = records[-users[at][1]]
                H = rpred.H_r[r] + rpred.profile.r_load[r]
            else:
                H = 0.0
            rec_H_r[r] = H
            if r_tmax[r] + period * H > bound:
                self.last_rejection = RejectionReason(
                    2, "throughput-tran",
                    f"string {string_id} on route {r[0]}->{r[1]}",
                    r_tmax[r] + period * H, period,
                )
                return False
            if at:
                r_lower.append((r, load, users[:at]))
        # Canonical accumulation: one sequential chain over touched
        # resources, machines (ascending) then routes (ascending).
        ws = 0.0
        for j, count in prof.m_count.items():
            ws += count * rec_H_m[j]
        for r, count in prof.r_count.items():
            ws += count * rec_H_r[r]
        rec.wait_sum = ws
        latency = prof.nominal_path + period * ws
        if latency > prof.max_latency * cap:
            self.last_rejection = RejectionReason(
                2, "latency", f"string {string_id}", latency, prof.max_latency
            )
            return False

        # ---- stage 2b: existing lower-priority strings gain interference ----
        # Accumulate wait_sum increments per affected string; check each
        # resource-level throughput bound as we go.  Only the
        # lower-priority prefix of each user list is walked, in
        # ascending key order, so the first-reported violator is the
        # lowest-priority one on the first violated resource.
        wait_delta: dict[int, float] = {}
        h_m_delta: list[tuple[_StringRecord, int, float]] = []
        h_r_delta: list[tuple[_StringRecord, Route, float]] = []
        for j, load, lower in m_lower:
            for ok in lower:
                z = -ok[1]
                other = records[z]
                op = other.profile
                newH = other.H_m[j] + load
                if (
                    op.m_tmax[j] + op.period * newH
                    > op.period * cap
                ):
                    self.last_rejection = RejectionReason(
                        2, "throughput-comp",
                        f"string {z} on machine {j}",
                        op.m_tmax[j] + op.period * newH, op.period,
                    )
                    return False
                h_m_delta.append((other, j, load))
                wait_delta[z] = wait_delta.get(z, 0.0) + op.m_count[j] * load
        for r, load, lower in r_lower:
            for ok in lower:
                z = -ok[1]
                other = records[z]
                op = other.profile
                newH = other.H_r[r] + load
                if (
                    op.r_tmax[r] + op.period * newH
                    > op.period * cap
                ):
                    self.last_rejection = RejectionReason(
                        2, "throughput-tran",
                        f"string {z} on route {r[0]}->{r[1]}",
                        op.r_tmax[r] + op.period * newH, op.period,
                    )
                    return False
                h_r_delta.append((other, r, load))
                wait_delta[z] = wait_delta.get(z, 0.0) + op.r_count[r] * load
        for z in sorted(wait_delta):
            other = records[z]
            op = other.profile
            new_latency = op.nominal_path + op.period * (
                other.wait_sum + wait_delta[z]
            )
            if new_latency > op.max_latency * cap:
                self.last_rejection = RejectionReason(
                    2, "latency", f"string {z}", new_latency, op.max_latency
                )
                return False

        # ---- commit ----------------------------------------------------------
        ru_cols = self._ru_cols
        for j, load in prof.m_load.items():
            mu[j] += load
            insort(machine_users[j], key)
        for r, load in prof.r_load.items():
            j1, j2 = r
            ru_cols[j2][j1] = ru_rows[j1][j2] = ru_rows[j1][j2] + load
            users = route_users.get(r)
            if users is None:
                route_users[r] = [key]
            else:
                insort(users, key)
        for other, j, load in h_m_delta:
            other.H_m[j] += load
        for other, r, load in h_r_delta:
            other.H_r[r] += load
        for z, delta in wait_delta.items():
            records[z].wait_sum += delta
        records[string_id] = rec
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
            self._mu[j] -= load
            users = self._machine_users[j]
            at = bisect_left(users, key)
            del users[at]
            for ok in users[:at]:
                other = self._records[-ok[1]]
                other.H_m[j] -= load
                other.wait_sum -= other.profile.m_count[j] * load
        for r, load in prof.r_load.items():
            j1, j2 = r
            self._ru_cols[j2][j1] = self._ru_rows[j1][j2] = (
                self._ru_rows[j1][j2] - load
            )
            users = self._route_users[r]
            at = bisect_left(users, key)
            del users[at]
            for ok in users[:at]:
                other = self._records[-ok[1]]
                other.H_r[r] -= load
                other.wait_sum -= other.profile.r_count[r] * load
            if not users:
                del self._route_users[r]
        self._worth -= self.model.strings[string_id].worth
        self._mapped_cache = None

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
