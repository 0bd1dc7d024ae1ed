"""Batched population evaluation over stacked SoA buffers.

The scalar kernels (:mod:`repro.core.state_soa` and friends) score one
candidate ordering at a time; every NumPy operation they issue touches a
``(c, N)`` block small enough that per-call dispatch overhead rivals the
arithmetic.  This module amortizes that overhead across a *population*:
:class:`BatchSoaState` stacks ``B`` independent lane states into one
``(B, 7 + 4·(C+1), N)`` float64 buffer and runs the two-stage
feasibility analysis for one candidate string **per lane** as vectorized
passes over the whole batch — stage-1 capacity, stage-2a/2b
interference and latency re-checks, worth accumulation, and commit all
execute once per placement step instead of once per lane.

Lanes are independent: an ordering that fails at step ``s`` simply goes
inactive (early-exit masking) while the rest of the batch keeps
stepping.  Failed-lane arithmetic in later stages of the same step is
computed but masked out of both the rejection decoding and the commit.

Padding and the dummy row
-------------------------
Per step each lane contributes its candidate's
:class:`~repro.core.profile.StringProfile`; profiles touch different
numbers of resources, so per-lane resource vectors are padded to the
widest profile in the step.  Padded entries carry ``res_idx = C`` — an
extra *dummy row* appended to every per-resource block (and to the fused
utilization vector) — with zero load/tmax/count.  Every gather from the
dummy row is annihilated by a zero multiplier or an empty membership
mask, and every scatter to it writes values that nothing reads, so
padding never perturbs lane arithmetic.

Bit-identity
------------
Batched and scalar evaluation are bit-identical — same fitness, same
``last_rejection`` fields, same committed state per lane.  The batched
passes perform the scalar kernels' IEEE-754 operations elementwise with
the lane axis prepended; the two genuinely sequential accumulations
(the new string's ``wait_sum`` chain and the stage-2b per-slot wait
fold) are explicit Python loops over the resource axis — vectorized
across lanes, sequential within a lane — because handing them to
``np.add.reduce`` over an *inner* array axis would invite NumPy's
pairwise summation and silently reassociate the chain.  Zero-initialized
accumulators match the scalar chains exactly: every addend is
non-negative, and ``0.0 + x == x`` holds bitwise for non-negative
``x``.  The randomized equivalence walks in ``tests/test_state_batch.py``
gate all of this against the scalar backends.
"""

from __future__ import annotations

from typing import Sequence, cast

import numpy as np

from .feasibility import DEFAULT_TOL
from .metrics import Fitness
from .model import SystemModel
from .profile import ProfileCache, StringProfile, compute_profile
from .state import AllocationState, RejectionReason
from .state_soa import SoaAllocationState
from .types import FloatArray, IntVectorLike

__all__ = [
    "BatchEvaluator",
    "BatchOutcome",
    "BatchSoaState",
    "DEFAULT_MAX_LANES",
    "evaluate_batch",
    "probe_try_add",
    "project_batch",
]

#: Scalar rows ahead of the per-resource blocks (mirrors state_soa).
_SCALAR_ROWS = 7

#: Default lane-chunk width: bounds the stacked buffer to a few tens of
#: megabytes at the paper's largest scenario scale while keeping enough
#: lanes in flight to amortize per-pass dispatch.
DEFAULT_MAX_LANES = 32


def _res_name(rho: int, n_machines: int) -> str:
    if rho < n_machines:
        return f"machine {rho}"
    j1, j2 = divmod(rho - n_machines, n_machines)
    return f"route {j1}->{j2}"


class _LaneView:
    """Duck-typed stand-in for an :class:`AllocationState` exposing just
    what the deterministic IMR reads: the model and the committed
    utilization views of one lane."""

    __slots__ = ("model", "machine_util", "route_util")

    def __init__(
        self,
        model: SystemModel,
        machine_util: FloatArray,
        route_util: FloatArray,
    ) -> None:
        self.model = model
        self.machine_util = machine_util
        self.route_util = route_util


class _StepArrays:
    """Padded per-step candidate arrays (one row per stepping lane)."""

    __slots__ = (
        "lanes", "sid", "Ridx", "Rload", "Rtmax", "Rcnt",
        "t", "P", "nomp", "mlat", "valid",
    )

    def __init__(
        self,
        lanes: Sequence[int],
        sids: Sequence[int],
        profs: Sequence[StringProfile],
        dummy_row: int,
    ) -> None:
        A = len(lanes)
        cmax = max(p.res_idx.size for p in profs)
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.sid = np.asarray(sids, dtype=np.int64)
        self.Ridx = np.full((A, cmax), dummy_row, dtype=np.int64)
        self.Rload = np.zeros((A, cmax))
        self.Rtmax = np.zeros((A, cmax))
        self.Rcnt = np.zeros((A, cmax))
        self.valid = np.zeros((A, cmax), dtype=bool)
        self.t = np.empty(A)
        self.P = np.empty(A)
        self.nomp = np.empty(A)
        self.mlat = np.empty(A)
        for i, p in enumerate(profs):
            c = p.res_idx.size
            self.Ridx[i, :c] = p.res_idx
            self.Rload[i, :c] = p.res_load
            self.Rtmax[i, :c] = p.res_tmax
            self.Rcnt[i, :c] = p.res_count
            self.valid[i, :c] = True
            self.t[i] = p.tightness
            self.P[i] = p.period
            self.nomp[i] = p.nominal_path
            self.mlat[i] = p.max_latency


class _StageResults:
    """Raw check/intermediate arrays of one batched feasibility pass."""

    __slots__ = (
        "nu", "viol1", "f1", "lhs2a", "viol2a", "f2a", "latency", "f2alat",
        "lhs2b", "viol2b", "f2b", "newlat", "violL", "fL", "ok",
        "Hnew", "ws", "wd", "Hg", "Hp", "Ml",
    )


def _staged_checks(
    sa: _StepArrays,
    util: FloatArray,
    tight: FloatArray,
    cnt: FloatArray,
    load: FloatArray,
    tmax: FloatArray,
    H: FloatArray,
    period: FloatArray,
    wait: FloatArray,
    nominal: FloatArray,
    pbound: FloatArray,
    lbound: FloatArray,
    ids: np.ndarray,
    tol: float,
) -> _StageResults:
    """Run the two-stage analysis for all stepping lanes at once.

    The per-lane state arrays arrive pre-gathered with the lane axis
    prepended — ``util`` is ``(A, ·)``, ``tight``/``wait``/… are
    ``(A, N)``, and the resource blocks are ``(A, c, N)`` — so the same
    code serves both the stacked buffer (lanes gathered per step) and
    the broadcast single-state probe.  Nothing here mutates state.
    """
    r = _StageResults()
    bound = 1.0 + tol
    A, cmax = sa.Ridx.shape
    N = ids.size

    # ---- stage 1: capacity (fused machines + routes) --------------------
    r.nu = util + sa.Rload
    r.viol1 = (r.nu > bound) & sa.valid
    r.f1 = r.viol1.any(axis=1)

    # ---- priority partition ---------------------------------------------
    hi = (tight > sa.t[:, None]) | (
        (tight == sa.t[:, None])  # repro: noqa[RPR001] exact-key tie
        & (ids[None, :] < sa.sid[:, None])
    )
    used = cnt > 0.0
    Mh = used & hi[:, None, :] & sa.valid[:, :, None]
    Ml = (used ^ (used & hi[:, None, :])) & sa.valid[:, :, None]
    r.Ml = Ml

    # ---- stage 2a: the new string under existing interference -----------
    # Priority predecessor per (lane, resource): argmin over the reversed
    # slot axis = minimum tightness, largest id on ties — the scalar
    # kernel's exact selection.
    keyed = np.where(Mh, tight[:, None, :], np.inf)
    has = Mh.any(axis=2)
    wsel = (N - 1) - keyed[:, :, ::-1].argmin(axis=2)
    gl = np.take_along_axis(load, wsel[:, :, None], axis=2)[:, :, 0]
    gH = np.take_along_axis(H, wsel[:, :, None], axis=2)[:, :, 0]
    r.Hnew = np.where(has, gH + gl, 0.0)
    r.lhs2a = sa.Rtmax + sa.P[:, None] * r.Hnew
    r.viol2a = (r.lhs2a > (sa.P * bound)[:, None]) & sa.valid
    r.f2a = r.viol2a.any(axis=1)

    # Canonical wait_sum chain: sequential over the resource axis (an
    # explicit loop — reduce over an inner axis may sum pairwise),
    # vectorized across lanes.  Padded products are +0.0, which is exact.
    ws = np.zeros(A)
    prods_ws = sa.Rcnt * r.Hnew
    for ci in range(cmax):
        ws += prods_ws[:, ci]
    r.ws = ws
    r.latency = sa.nomp + sa.P * ws
    r.f2alat = r.latency > sa.mlat * bound

    # ---- stage 2b: existing lower-priority strings gain interference ----
    r.Hg = H
    r.Hp = H + sa.Rload[:, :, None]
    ph = period[:, None, :] * r.Hp
    r.lhs2b = tmax + ph
    r.viol2b = (r.lhs2b > pbound[:, None, :]) & Ml
    r.f2b = r.viol2b.any(axis=(1, 2))

    # Per-slot wait increments: same explicit sequential fold over the
    # resource axis as the scalar kernels' np.add.reduce over rows.
    prods = np.where(Ml, cnt * sa.Rload[:, :, None], 0.0)
    wd = np.zeros((A, N))
    for ci in range(cmax):
        wd += prods[:, ci, :]
    r.wd = wd
    r.newlat = nominal + period * (wait + wd)
    r.violL = r.newlat > lbound
    r.fL = r.violL.any(axis=1)

    r.ok = ~(r.f1 | r.f2a | r.f2alat | r.f2b | r.fL)
    return r


def _decode_rejection(
    r: _StageResults,
    sa: _StepArrays,
    i: int,
    period_row: FloatArray,
    maxlat_row: FloatArray,
    n_machines: int,
) -> RejectionReason:
    """Scalar-identical ``last_rejection`` for stepping lane ``i``.

    The scalar kernels report the *first* violated check in stage order,
    scanning resources in fused order and slots ascending; the argmaxes
    below reproduce exactly that scan.
    """
    sid = int(sa.sid[i])
    if r.f1[i]:
        ci = int(r.viol1[i].argmax())
        rho = int(sa.Ridx[i, ci])
        kind = "machine-capacity" if rho < n_machines else "route-capacity"
        return RejectionReason(
            1, kind, _res_name(rho, n_machines), float(r.nu[i, ci]), 1.0
        )
    if r.f2a[i]:
        ci = int(r.viol2a[i].argmax())
        rho = int(sa.Ridx[i, ci])
        kind = "throughput-comp" if rho < n_machines else "throughput-tran"
        return RejectionReason(
            2, kind, f"string {sid} on {_res_name(rho, n_machines)}",
            float(r.lhs2a[i, ci]), float(sa.P[i]),
        )
    if r.f2alat[i]:
        return RejectionReason(
            2, "latency", f"string {sid}",
            float(r.latency[i]), float(sa.mlat[i]),
        )
    if r.f2b[i]:
        rows = r.viol2b[i].any(axis=1)
        ci = int(rows.argmax())
        z = int(r.viol2b[i, ci].argmax())
        rho = int(sa.Ridx[i, ci])
        kind = "throughput-comp" if rho < n_machines else "throughput-tran"
        return RejectionReason(
            2, kind, f"string {z} on {_res_name(rho, n_machines)}",
            float(r.lhs2b[i, ci, z]), float(period_row[z]),
        )
    z = int(r.violL[i].argmax())
    return RejectionReason(
        2, "latency", f"string {z}", float(r.newlat[i, z]),
        float(maxlat_row[z]),
    )


class BatchSoaState:
    """``B`` lane states stacked into one buffer, stepped together.

    Each lane is an independent allocation state with the exact SoA
    layout (plus the dummy resource row); :meth:`try_add_batch` performs
    one scalar-identical ``try_add`` per listed lane as a handful of
    whole-batch vectorized passes.
    """

    def __init__(
        self,
        model: SystemModel,
        n_lanes: int,
        tol: float = DEFAULT_TOL,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
        self.model = model
        self.tol = tol
        self.profile_cache = profile_cache
        M = model.n_machines
        N = len(model.strings)
        C = M + M * M
        self._M = M
        self._N = N
        self._C = C
        self.n_lanes = n_lanes
        C1 = C + 1  # + dummy row
        buf = np.zeros((n_lanes, _SCALAR_ROWS + 4 * C1, N))
        self._buf: FloatArray = buf
        self._period: FloatArray = buf[:, 0]
        self._nominal: FloatArray = buf[:, 1]
        self._maxlat: FloatArray = buf[:, 2]
        self._tight: FloatArray = buf[:, 3]
        self._wait: FloatArray = buf[:, 4]
        self._pbound: FloatArray = buf[:, 5]
        self._lbound: FloatArray = buf[:, 6]
        o = _SCALAR_ROWS
        self._load: FloatArray = buf[:, o : o + C1]
        self._tmax: FloatArray = buf[:, o + C1 : o + 2 * C1]
        self._cnt: FloatArray = buf[:, o + 2 * C1 : o + 3 * C1]
        self._H: FloatArray = buf[:, o + 3 * C1 : o + 4 * C1]
        self._util: FloatArray = np.zeros((n_lanes, C1))
        self._mapped = np.zeros((n_lanes, N), dtype=bool)
        self._ids = np.arange(N, dtype=np.int64)
        self._profiles: list[dict[int, StringProfile]] = [
            {} for _ in range(n_lanes)
        ]
        self._worth: list[float] = [0.0] * n_lanes
        self._views = [
            _LaneView(
                model,
                self._util[b, :M],
                self._util[b, M:C].reshape(M, M),
            )
            for b in range(n_lanes)
        ]

    # -- lane management ---------------------------------------------------

    def lane_view(self, b: int) -> AllocationState:
        """The lane's utilization view, duck-typed for the IMR."""
        return cast(AllocationState, self._views[b])

    def reset_lane(self, b: int) -> None:
        """Return lane ``b`` to the empty state (all-zero, as a fresh
        scalar state starts)."""
        self._buf[b] = 0.0
        self._util[b] = 0.0
        self._mapped[b] = False
        self._profiles[b] = {}
        self._worth[b] = 0.0

    def lane_fitness(self, b: int) -> Fitness:
        """Scalar-identical (worth, slackness) of lane ``b``."""
        M, C = self._M, self._C
        machine = self._util[b, :M]
        route = self._util[b, M:C].reshape(M, M)
        slack = 1.0 - float(machine.max(initial=0.0))
        off = route[~np.eye(M, dtype=bool)]
        if off.size:
            slack = min(slack, 1.0 - float(off.max()))
        return Fitness(worth=self._worth[b], slackness=slack)

    def lane_worth(self, b: int) -> float:
        return self._worth[b]

    def lane_mapped_count(self, b: int) -> int:
        return len(self._profiles[b])

    def get_profile(
        self, string_id: int, machines: IntVectorLike
    ) -> StringProfile:
        if self.profile_cache is not None:
            return self.profile_cache.get_or_compute(
                self.model, string_id, machines
            )
        return compute_profile(self.model, string_id, machines)

    # -- the batched step --------------------------------------------------

    def try_add_batch(
        self,
        lanes: Sequence[int],
        sids: Sequence[int],
        profs: Sequence[StringProfile],
    ) -> list[tuple[bool, RejectionReason | None]]:
        """One ``try_add`` per listed lane, executed as batch passes.

        Returns ``(accepted, rejection)`` per lane in input order;
        accepted lanes are committed, rejected lanes are untouched
        (exactly the scalar contract).  Lanes must be distinct.
        """
        sa = _StepArrays(lanes, sids, profs, dummy_row=self._C)
        L = sa.lanes
        Lc = L[:, None]
        r = _staged_checks(
            sa,
            util=self._util[Lc, sa.Ridx],
            tight=self._tight[L],
            cnt=self._cnt[Lc, sa.Ridx],
            load=self._load[Lc, sa.Ridx],
            tmax=self._tmax[Lc, sa.Ridx],
            H=self._H[Lc, sa.Ridx],
            period=self._period[L],
            wait=self._wait[L],
            nominal=self._nominal[L],
            pbound=self._pbound[L],
            lbound=self._lbound[L],
            ids=self._ids,
            tol=self.tol,
        )

        # ---- commit the accepted lanes ----------------------------------
        ki = np.flatnonzero(r.ok)
        if ki.size:
            bound = 1.0 + self.tol
            Lo = L[ki]
            Lo1 = Lo[:, None]
            Ro = sa.Ridx[ki]
            sido = sa.sid[ki]
            # Fancy scatters: within a lane real resource indices are
            # distinct; every padded duplicate lands on the dummy row
            # with a zero (or unread) value.
            self._util[Lo1, Ro] += sa.Rload[ki]
            wb = np.where(r.Ml[ki], r.Hp[ki], r.Hg[ki])
            self._H[Lo1, Ro] = wb
            self._wait[Lo] += r.wd[ki]
            self._period[Lo, sido] = sa.P[ki]
            self._nominal[Lo, sido] = sa.nomp[ki]
            self._maxlat[Lo, sido] = sa.mlat[ki]
            self._tight[Lo, sido] = sa.t[ki]
            self._wait[Lo, sido] = r.ws[ki]
            self._pbound[Lo, sido] = sa.P[ki] * bound
            self._lbound[Lo, sido] = sa.mlat[ki] * bound
            sidc = sido[:, None]
            self._load[Lo1, Ro, sidc] = sa.Rload[ki]
            self._tmax[Lo1, Ro, sidc] = sa.Rtmax[ki]
            self._cnt[Lo1, Ro, sidc] = sa.Rcnt[ki]
            self._H[Lo1, Ro, sidc] = r.Hnew[ki]
            self._mapped[Lo, sido] = True
            for i in ki.tolist():
                b = int(L[i])
                s = int(sa.sid[i])
                self._worth[b] += self.model.strings[s].worth
                self._profiles[b][s] = profs[i]

        results: list[tuple[bool, RejectionReason | None]] = []
        for i in range(len(lanes)):
            if r.ok[i]:
                results.append((True, None))
            else:
                b = int(L[i])
                results.append((
                    False,
                    _decode_rejection(
                        r, sa, i, self._period[b], self._maxlat[b], self._M
                    ),
                ))
        return results


def probe_try_add(
    state: SoaAllocationState,
    candidates: Sequence[tuple[int, IntVectorLike]],
    profile_cache: ProfileCache | None = None,
) -> list[tuple[bool, RejectionReason | None]]:
    """Score many candidate ``try_add`` calls against one scalar state.

    Commit-free neighborhood scoring: every candidate is checked against
    the *same* base state (broadcast, not copied per lane), returning
    the exact ``(accepted, last_rejection)`` the scalar ``try_add``
    would produce — without mutating ``state``.  Callers commit the
    winning candidate through the scalar path.  Bit-identical because a
    failed scalar ``try_add`` leaves the state untouched, so successive
    scalar probes from an unchanged state see exactly this base.
    """
    if not candidates:
        return []
    model = state.model
    profs = []
    sids = []
    for sid, machines in candidates:
        sids.append(sid)
        if profile_cache is not None:
            profs.append(
                profile_cache.get_or_compute(model, sid, machines)
            )
        else:
            profs.append(state._get_profile(sid, machines))
    C = model.n_machines + model.n_machines**2
    sa = _StepArrays(
        lanes=[0] * len(sids), sids=sids, profs=profs, dummy_row=C
    )
    A = len(sids)
    N = len(model.strings)
    # Broadcast the single state across the lane axis; padded entries
    # are masked via sa.valid (there is no dummy row in a scalar state,
    # so the pad index C is clamped to a real row and masked instead).
    Ridx_safe = np.where(sa.valid, sa.Ridx, 0)
    sa.Ridx = Ridx_safe
    r = _staged_checks(
        sa,
        util=state._util[Ridx_safe],
        tight=np.broadcast_to(state._tight, (A, N)),
        cnt=state._cntT[Ridx_safe],
        load=state._loadT[Ridx_safe],
        tmax=state._tmaxT[Ridx_safe],
        H=state._HT[Ridx_safe],
        period=np.broadcast_to(state._period, (A, N)),
        wait=np.broadcast_to(state._wait, (A, N)),
        nominal=np.broadcast_to(state._nominal, (A, N)),
        pbound=np.broadcast_to(state._pbound, (A, N)),
        lbound=np.broadcast_to(state._lbound, (A, N)),
        ids=state._ids,
        tol=state.tol,
    )
    out: list[tuple[bool, RejectionReason | None]] = []
    for i in range(A):
        if r.ok[i]:
            out.append((True, None))
        else:
            out.append((
                False,
                _decode_rejection(
                    r, sa, i, state._period, state._maxlat, model.n_machines
                ),
            ))
    return out


class BatchOutcome:
    """Result of projecting one ordering through the batched kernel.

    Mirrors :class:`~repro.heuristics.ordering.SequenceOutcome` minus
    the live state: the fitness, the successfully mapped prefix, the
    first failing string (``None`` for a complete allocation), and the
    scalar-identical rejection record of that failure.
    """

    __slots__ = ("fitness", "mapped_ids", "failed_id", "rejection")

    def __init__(
        self,
        fitness: Fitness,
        mapped_ids: tuple[int, ...],
        failed_id: int | None,
        rejection: RejectionReason | None,
    ) -> None:
        self.fitness = fitness
        self.mapped_ids = mapped_ids
        self.failed_id = failed_id
        self.rejection = rejection

    @property
    def complete(self) -> bool:
        return self.failed_id is None


def _project_chunk(
    model: SystemModel,
    orderings: Sequence[Sequence[int]],
    profile_cache: ProfileCache | None,
    tol: float,
) -> list[BatchOutcome]:
    """Project up to ``max_lanes`` orderings in lockstep."""
    from ..heuristics.imr import imr_map_string

    B = len(orderings)
    bs = BatchSoaState(model, B, tol=tol, profile_cache=profile_cache)
    orders = [list(o) for o in orderings]
    pos = [0] * B
    mapped: list[list[int]] = [[] for _ in range(B)]
    failed: list[int | None] = [None] * B
    rejections: list[RejectionReason | None] = [None] * B
    active = [len(o) > 0 for o in orders]

    while True:
        stepping = [b for b in range(B) if active[b]]
        if not stepping:
            break
        sids = []
        profs = []
        for b in stepping:
            k = orders[b][pos[b]]
            assignment = imr_map_string(bs.lane_view(b), k)
            sids.append(k)
            profs.append(bs.get_profile(k, assignment))
        results = bs.try_add_batch(stepping, sids, profs)
        for b, k, (ok, rejection) in zip(stepping, sids, results):
            if ok:
                mapped[b].append(k)
                pos[b] += 1
                if pos[b] >= len(orders[b]):
                    active[b] = False
            else:
                failed[b] = k
                rejections[b] = rejection
                active[b] = False
    return [
        BatchOutcome(
            fitness=bs.lane_fitness(b),
            mapped_ids=tuple(mapped[b]),
            failed_id=failed[b],
            rejection=rejections[b],
        )
        for b in range(B)
    ]


def project_batch(
    model: SystemModel,
    orderings: Sequence[Sequence[int]],
    *,
    profile_cache: ProfileCache | None = None,
    tol: float = DEFAULT_TOL,
    max_lanes: int = DEFAULT_MAX_LANES,
) -> list[BatchOutcome]:
    """Project many orderings through the batched kernel.

    Orderings are evaluated in chunks of ``max_lanes`` lanes; each lane
    runs the allocate-until-first-failure projection (IMR per string,
    then the batched two-stage feasibility analysis), bit-identical to
    :func:`repro.heuristics.ordering.allocate_sequence` per ordering.
    """
    if max_lanes < 1:
        raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
    outcomes: list[BatchOutcome] = []
    for start in range(0, len(orderings), max_lanes):
        outcomes.extend(
            _project_chunk(
                model,
                orderings[start : start + max_lanes],
                profile_cache,
                tol,
            )
        )
    return outcomes


def evaluate_batch(
    model: SystemModel,
    orderings: Sequence[Sequence[int]],
    *,
    profile_cache: ProfileCache | None = None,
    tol: float = DEFAULT_TOL,
    max_lanes: int = DEFAULT_MAX_LANES,
) -> list[Fitness]:
    """Fitness of each ordering, via the batched projection kernel.

    Bit-identical to mapping the scalar projection over ``orderings``.
    """
    return [
        o.fitness
        for o in project_batch(
            model,
            orderings,
            profile_cache=profile_cache,
            tol=tol,
            max_lanes=max_lanes,
        )
    ]


class BatchEvaluator:
    """Callable bulk evaluator over the batched kernel.

    Matches the :class:`~repro.genitor.GenitorEngine`
    ``initial_evaluator`` hook: called with a sequence of chromosomes,
    returns their fitness values in order — bit-identical to the
    engine's scalar ``fitness_fn``.
    """

    def __init__(
        self,
        model: SystemModel,
        *,
        profile_cache: ProfileCache | None = None,
        tol: float = DEFAULT_TOL,
        max_lanes: int = DEFAULT_MAX_LANES,
    ) -> None:
        self.model = model
        self.profile_cache = profile_cache
        self.tol = tol
        self.max_lanes = max_lanes

    def __call__(
        self, chromosomes: Sequence[Sequence[int]]
    ) -> list[Fitness]:
        return evaluate_batch(
            self.model,
            chromosomes,
            profile_cache=self.profile_cache,
            tol=self.tol,
            max_lanes=self.max_lanes,
        )
