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

Two interchangeable backends implement this bookkeeping:

* ``"record"`` (:class:`RecordAllocationState`, this module) — the
  reference implementation: one ``dict``-based record per mapped string
  plus sorted per-resource user lists.
* ``"soa"`` (:class:`repro.core.state_soa.SoaAllocationState`, the
  default) — a flat struct-of-arrays kernel: every cached quantity lives
  in one dense ``(rows, N)`` float buffer so the feasibility stages run
  as vectorized kernels and ``snapshot()``/``restore()`` collapse to
  array copies.

A third entry, ``"sanitize"``
(:class:`repro.core.state_sanitize.SanitizeAllocationState`), is not an
implementation but a *verifier*: it runs both backends in lockstep and
raises :class:`~repro.core.state_sanitize.StateDivergenceError` at the
first operation whose results are not bit-identical.  Select it via
``REPRO_STATE_BACKEND=sanitize`` to turn any test run into an
equivalence audit.

The two backends are **bit-identical**: the same call sequence produces
the same accept/reject decisions, the same ``last_rejection`` fields,
and the same cached floats, because both perform the same scalar
floating-point operations in the same canonical order — interference
``H`` for a newly added string is derived from its *priority
predecessor* (``H[w] + load[w]`` for the lowest-priority user ``w``
above the new key), waiting-term accumulations run over touched
resources in ascending fused-resource order, and per-user scans run in
ascending string-id order.  ``AllocationState(...)`` constructs whichever
backend is selected (``backend=`` argument, then
:func:`set_default_state_backend`, then the ``REPRO_STATE_BACKEND``
environment variable, then ``"soa"``).

The immutable part of the per-string record (loads, tmax, counts,
nominal path, priority key) lives in :class:`~repro.core.profile.StringProfile`
and can be memoized across states through a
:class:`~repro.core.profile.ProfileCache`; only the interference terms
(``H``, ``wait_sum``) are state-local.  :meth:`AllocationState.snapshot`
/ :meth:`AllocationState.restore` copy exactly that mutable core.
"""

from __future__ import annotations

import os
import warnings
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from .allocation import Allocation
from .exceptions import AllocationError
from .feasibility import DEFAULT_TOL
from .metrics import Fitness
from .model import SystemModel
from .profile import ProfileCache, Route, StringProfile, compute_profile
from .types import FloatArray, IntArray, IntVectorLike

if TYPE_CHECKING:
    from .state_sanitize import SanitizeStateSnapshot
    from .state_soa import SoaStateSnapshot

    #: Any backend's snapshot.
    StateSnapshotLike = Union[
        "StateSnapshot", "SoaStateSnapshot", "SanitizeStateSnapshot"
    ]

__all__ = [
    "AUTO_BACKEND",
    "AUTO_RECORD_CELLS",
    "STATE_BACKENDS",
    "AllocationState",
    "RecordAllocationState",
    "RejectionReason",
    "StateSnapshot",
    "get_default_state_backend",
    "resolve_auto_backend",
    "set_default_state_backend",
]

#: Recognized feasibility-kernel backends.  ``"soa"`` is the vectorized
#: struct-of-arrays kernel, ``"record"`` the scalar reference kernel,
#: ``"jit"`` the optionally-compiled SoA variant (pure-NumPy fallback
#: when :mod:`numba` is absent).  ``"sanitize"`` runs soa and record in
#: lockstep and asserts bit-identity on every operation — a
#: verification tool, never a benchmark target (see
#: :mod:`repro.core.state_sanitize`).
STATE_BACKENDS: tuple[str, ...] = ("soa", "record", "jit", "sanitize")

#: Pseudo-backend: resolve to a concrete kernel per instance size at
#: construction time (see :func:`resolve_auto_backend`).  All kernels
#: are bit-identical, so the choice is purely a throughput matter.
AUTO_BACKEND = "auto"

#: ``n_strings * (M + M²)`` at or below which ``"auto"`` picks the
#: scalar record kernel.  On small instances every NumPy expression in
#: the SoA kernel touches a handful of elements and per-call dispatch
#: dominates, so the plain-Python kernel is measurably faster; past
#: this size the vectorized kernel and its O(1)-ish snapshots win.
AUTO_RECORD_CELLS = 1024


def resolve_auto_backend(model: SystemModel) -> str:
    """The concrete kernel ``"auto"`` selects for ``model``.

    Small instances (``n_strings * (M + M²) <= AUTO_RECORD_CELLS``) get
    the scalar ``"record"`` kernel; larger ones the vectorized
    ``"soa"`` kernel — with its compiled ``"jit"`` variant instead
    whenever :mod:`numba` is importable.  Results are bit-identical
    across all three, so this only ever changes throughput.
    """
    m = model.n_machines
    if model.n_strings * (m + m * m) <= AUTO_RECORD_CELLS:
        return "record"
    from .state_jit import HAVE_NUMBA

    return "jit" if HAVE_NUMBA else "soa"


def _env_default_backend() -> str:
    name = os.environ.get("REPRO_STATE_BACKEND", "").strip().lower()
    if not name:
        return AUTO_BACKEND
    if name != AUTO_BACKEND and name not in STATE_BACKENDS:
        warnings.warn(
            f"REPRO_STATE_BACKEND={name!r} is not one of "
            f"{STATE_BACKENDS + (AUTO_BACKEND,)}; using {AUTO_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return AUTO_BACKEND
    return name


_default_backend: str = _env_default_backend()


def get_default_state_backend() -> str:
    """The backend :class:`AllocationState` constructs by default."""
    return _default_backend


def set_default_state_backend(name: str) -> None:
    """Select the default feasibility-kernel backend process-wide.

    ``name`` must be one of :data:`STATE_BACKENDS` or ``"auto"``.
    Existing states keep their backend; only subsequent
    ``AllocationState(...)`` constructions are affected.  The initial
    default comes from the ``REPRO_STATE_BACKEND`` environment variable
    (``"auto"`` when unset).
    """
    if name != AUTO_BACKEND and name not in STATE_BACKENDS:
        raise ValueError(
            f"unknown state backend {name!r}; choose from "
            f"{STATE_BACKENDS + (AUTO_BACKEND,)}"
        )
    global _default_backend
    _default_backend = name


def _backend_class(
    name: str | None, model: SystemModel | None = None
) -> type["AllocationState"]:
    resolved = _default_backend if name is None else name
    if resolved == AUTO_BACKEND:
        if model is None:
            raise ValueError(
                "the 'auto' backend resolves per model; construct via "
                "AllocationState(model, ...) or name a concrete backend"
            )
        resolved = resolve_auto_backend(model)
    if resolved == "record":
        return RecordAllocationState
    if resolved == "soa":
        from .state_soa import SoaAllocationState

        return SoaAllocationState
    if resolved == "jit":
        from .state_jit import JitAllocationState

        return JitAllocationState
    if resolved == "sanitize":
        from .state_sanitize import SanitizeAllocationState

        return SanitizeAllocationState
    raise ValueError(
        f"unknown state backend {resolved!r}; choose from {STATE_BACKENDS}"
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
    """Frozen copy of a record-backend state's mutable core.

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

    ``AllocationState(model, ...)`` dispatches to the selected backend
    subclass (see the module docstring); both backends share this public
    interface and produce bit-identical results.

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
    backend:
        Explicit backend choice (``"soa"`` or ``"record"``); ``None``
        uses :func:`get_default_state_backend`.
    """

    #: Backend name; overridden by subclasses.
    backend: str = ""

    #: Eq. (2) utilization per machine (running totals).
    machine_util: FloatArray
    #: Eq. (3) utilization per route (running totals, diag always 0).
    route_util: FloatArray

    def __new__(
        cls,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
        backend: str | None = None,
    ) -> "AllocationState":
        if cls is AllocationState:
            cls = _backend_class(backend, model)
        elif backend is not None and backend != cls.backend:
            raise ValueError(
                f"backend {backend!r} conflicts with {cls.__name__}"
            )
        return object.__new__(cls)

    def __init__(
        self,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
        backend: str | None = None,
    ) -> None:
        self.model = model
        self.tol = tol
        self.profile_cache = profile_cache
        self._worth = 0.0
        self._mapped_cache: tuple[int, ...] | None = None
        #: Diagnostic: why the most recent ``try_add`` failed (or None).
        self.last_rejection: RejectionReason | None = None

    # -- read-only views -------------------------------------------------------

    @property
    def n_strings(self) -> int:
        raise NotImplementedError

    @property
    def mapped_ids(self) -> tuple[int, ...]:
        """Sorted ids of the mapped strings (cached between mutations)."""
        cached = self._mapped_cache
        if cached is None:
            cached = self._compute_mapped_ids()
            self._mapped_cache = cached
        return cached

    def _compute_mapped_ids(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def total_worth(self) -> float:
        return self._worth

    def machines_for(self, string_id: int) -> IntArray:
        raise NotImplementedError

    def __contains__(self, string_id: int) -> bool:
        raise NotImplementedError

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
        raise NotImplementedError

    def estimated_latency(self, string_id: int) -> float:
        """Estimated end-to-end latency of a mapped string."""
        raise NotImplementedError

    def interference_terms(
        self, string_id: int
    ) -> tuple[dict[int, float], dict[Route, float], float]:
        """``(H per machine, H per route, wait_sum)`` of a mapped string.

        Introspection for tests and diagnostics; the equivalence suite
        asserts these match bit-for-bit across backends.
        """
        raise NotImplementedError

    def machine_users(self, j: int) -> IntArray:
        """Ascending ids of mapped strings with applications on ``j``."""
        raise NotImplementedError

    def route_users(self, j1: int, j2: int) -> IntArray:
        """Ascending ids of mapped strings with transfers on the route."""
        raise NotImplementedError

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> "StateSnapshotLike":
        """Detached copy of the mutable core (profiles shared)."""
        raise NotImplementedError

    def restore(self, snapshot: "StateSnapshotLike") -> None:
        """Reset this state to ``snapshot`` (which stays reusable)."""
        raise NotImplementedError

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
        raise NotImplementedError

    def remove(self, string_id: int) -> None:
        """Remove a mapped string, restoring all cached quantities.

        The inverse of a successful :meth:`try_add`; used by local-search
        extensions and by tests that verify the cache algebra.
        """
        raise NotImplementedError

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


class RecordAllocationState(AllocationState):
    """The dict-and-record reference backend (``backend="record"``).

    One :class:`_StringRecord` per mapped string plus ascending
    per-resource user lists.  All scalar accumulations follow the
    canonical order shared with the struct-of-arrays kernel (see the
    module docstring), so the two backends stay bit-identical.
    """

    backend = "record"

    def __init__(
        self,
        model: SystemModel,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(model, tol, profile_cache)
        M = model.n_machines
        self.machine_util = np.zeros(M)
        self.route_util = np.zeros((M, M))
        self._records: dict[int, _StringRecord] = {}
        # resource -> ascending list of string ids using it
        self._machine_users: list[list[int]] = [[] for _ in range(M)]
        self._route_users: dict[Route, list[int]] = {}

    # -- read-only views -------------------------------------------------------

    @property
    def n_strings(self) -> int:
        return len(self._records)

    def _compute_mapped_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._records))

    def machines_for(self, string_id: int) -> IntArray:
        return self._records[string_id].profile.machines

    def __contains__(self, string_id: int) -> bool:
        return string_id in self._records

    def as_allocation(self) -> Allocation:
        return Allocation(
            self.model,
            {k: rec.profile.machines for k, rec in self._records.items()},
        )

    def estimated_latency(self, string_id: int) -> float:
        rec = self._records[string_id]
        return rec.profile.nominal_path + rec.profile.period * rec.wait_sum

    def interference_terms(
        self, string_id: int
    ) -> tuple[dict[int, float], dict[Route, float], float]:
        rec = self._records[string_id]
        return dict(rec.H_m), dict(rec.H_r), rec.wait_sum

    def machine_users(self, j: int) -> IntArray:
        return np.asarray(self._machine_users[j], dtype=np.int64)

    def route_users(self, j1: int, j2: int) -> IntArray:
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

    def restore(self, snapshot: "StateSnapshotLike") -> None:
        """Reset this state to ``snapshot`` (which stays reusable).

        The snapshot's arrays, records, and user lists are copied again
        so later mutations of this state never leak back into the
        snapshot — a cached snapshot can seed any number of states.
        """
        if not isinstance(snapshot, StateSnapshot):
            raise TypeError(
                f"cannot restore a {type(snapshot).__name__} into the "
                f"'record' backend; snapshots do not transfer between "
                f"backends"
            )
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

    # -- the core operation -----------------------------------------------------

    def try_add(self, string_id: int, machines: IntVectorLike) -> bool:
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
        # This is the canonical derivation shared with the SoA kernel.
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
