"""System model for the Total Ship Computing Environment (TSCE).

This module implements Section 2 of the paper: a heterogeneous suite of
multitasking machines connected by virtual point-to-point communication
routes, and a workload of *strings* — ordered sequences of continuously
executing periodic applications connected by data transfers.

Conventions
-----------
* Machines are identified by integer index ``0 .. M-1`` (the paper uses
  1-based indices; everything in this library is 0-based).
* Applications within a string are indexed ``0 .. n_k - 1``.
* ``Network.bandwidth[j1, j2]`` is the total bandwidth ``w[j1, j2]`` of the
  virtual route from machine ``j1`` to machine ``j2`` in *bytes per
  second*.  Intra-machine routes (``j1 == j2``) have infinite bandwidth,
  represented as ``numpy.inf``.
* Each application ``i`` of string ``k`` carries a *nominal execution
  time* matrix entry ``t[i, j]`` (seconds, when executing alone on machine
  ``j``) and a *nominal CPU utilization* ``u[i, j]`` (fraction of machine
  ``j``'s CPU the application consumes while executing).  The product
  ``t[i, j] * u[i, j]`` is the fixed amount of CPU *work* the application
  requires on machine ``j``.
* ``output_size[i]`` is the number of bytes application ``i`` forwards to
  application ``i + 1``; a string of ``n`` applications has ``n - 1``
  inter-application transfers.

All model classes are immutable after construction (attributes are plain,
but the arrays are flagged non-writeable) so they can be shared freely
between heuristics, feasibility analyses, and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import ModelError
from .types import FloatArray, FloatArrayLike, IntVectorLike

__all__ = [
    "WORTH_FACTORS",
    "Machine",
    "Network",
    "AppString",
    "SystemModel",
]

#: The three worth factors the paper assigns to strings (Section 2).
WORTH_FACTORS: tuple[int, ...] = (1, 10, 100)

#: :meth:`AppString.imr_lists`: ``(share_rows, transfer_demand,
#: intensity_order)`` as plain Python lists.
ImrLists = tuple[list[list[float]], list[float], list[int]]


@dataclass(frozen=True)
class Machine:
    """A single computational resource.

    The paper models machine heterogeneity entirely through the
    per-application nominal execution times, so a machine itself carries
    only an identifier and an optional human-readable name.  The class
    exists so that higher layers (CLI, serialization, examples) can attach
    metadata without widening the numeric model.
    """

    index: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ModelError(f"machine index must be >= 0, got {self.index}")
        if not self.name:
            object.__setattr__(self, "name", f"machine-{self.index}")


class Network:
    """The virtual point-to-point communication fabric.

    Parameters
    ----------
    bandwidth:
        ``(M, M)`` array; ``bandwidth[j1, j2]`` is the total bandwidth of
        the route from machine ``j1`` to machine ``j2`` in bytes/second.
        The diagonal is forced to ``inf`` (intra-machine transfers are
        free, Section 6).  Off-diagonal entries must be strictly positive.

    Notes
    -----
    The paper assumes each ordered pair of distinct machines has its own
    independent virtual route (bandwidth reserved at initialization time),
    so the matrix need not be symmetric.
    """

    __slots__ = (
        "bandwidth",
        "n_machines",
        "_inv_bandwidth",
        "_avg_inv_bandwidth",
        "_inv_bw_rows",
        "_inv_bw_cols",
    )

    def __init__(self, bandwidth: FloatArrayLike) -> None:
        bw = np.asarray(bandwidth, dtype=float).copy()
        if bw.ndim != 2 or bw.shape[0] != bw.shape[1]:
            raise ModelError(f"bandwidth must be a square matrix, got shape {bw.shape}")
        if bw.shape[0] == 0:
            raise ModelError("network must contain at least one machine")
        np.fill_diagonal(bw, np.inf)
        off_diag = bw[~np.eye(bw.shape[0], dtype=bool)]
        if off_diag.size and not np.all(off_diag > 0):
            raise ModelError("all inter-machine bandwidths must be strictly positive")
        if np.any(np.isnan(bw)):
            raise ModelError("bandwidth matrix contains NaN")
        bw.setflags(write=False)
        self.bandwidth = bw
        self.n_machines = bw.shape[0]
        inv = np.zeros_like(bw)
        finite = np.isfinite(bw)
        inv[finite] = 1.0 / bw[finite]
        inv.setflags(write=False)
        #: Element-wise ``1 / w[j1, j2]`` with 0 on infinite-bandwidth routes.
        self._inv_bandwidth = inv
        self._inv_bw_rows: list[list[float]] | None = None
        self._inv_bw_cols: list[list[float]] | None = None
        # Average inverse bandwidth (Section 5, TF heuristic):
        #   1/w_av = (1/M^2) * sum_{j1, j2} 1/w[j1, j2]
        # The diagonal contributes zero, matching the printed double sum
        # over all M^2 ordered pairs.
        self._avg_inv_bandwidth = float(inv.sum() / (self.n_machines**2))

    @property
    def inv_bandwidth(self) -> FloatArray:
        """``1 / w`` matrix; zero where bandwidth is infinite."""
        return self._inv_bandwidth

    def inv_bandwidth_rows(self) -> list[list[float]]:
        """``inv_bandwidth`` as nested Python lists (cached).

        The IMR's scalar inner loop reads single route entries; plain
        list indexing avoids per-element NumPy scalar boxing.  The
        values are ``inv_bandwidth.tolist()`` — the identical doubles.
        """
        rows = self._inv_bw_rows
        if rows is None:
            rows = self._inv_bandwidth.tolist()
            self._inv_bw_rows = rows
        return rows

    def inv_bandwidth_cols(self) -> list[list[float]]:
        """Columns of ``inv_bandwidth`` as nested Python lists (cached):
        ``inv_bandwidth_cols()[j2][j1] == inv_bandwidth[j1, j2]``, for
        the IMR's scans over every route into one machine."""
        cols = self._inv_bw_cols
        if cols is None:
            cols = self._inv_bandwidth.T.tolist()
            self._inv_bw_cols = cols
        return cols

    @property
    def avg_inv_bandwidth(self) -> float:
        """The paper's ``1 / w_av`` (average of ``1/w`` over all M² pairs)."""
        return self._avg_inv_bandwidth

    def transfer_time(self, nbytes: float, j1: int, j2: int) -> float:
        """Nominal (unshared) time to move ``nbytes`` from ``j1`` to ``j2``."""
        return nbytes * self._inv_bandwidth[j1, j2]

    def routes(self, include_intra: bool = False) -> Iterator[tuple[int, int]]:
        """Iterate over ordered machine pairs.

        By default only *inter*-machine routes are yielded, because
        intra-machine routes have infinite bandwidth and never constrain
        anything (they are excluded from the slackness resource set Ω).
        """
        m = self.n_machines
        for j1 in range(m):
            for j2 in range(m):
                if include_intra or j1 != j2:
                    yield (j1, j2)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Network) and np.array_equal(
            self.bandwidth, other.bandwidth
        )

    def __hash__(self) -> int:  # pragma: no cover - convenience only
        return hash(self.bandwidth.tobytes())

    def __repr__(self) -> str:
        return f"Network(n_machines={self.n_machines})"


class AppString:
    """A string ``S^k``: an ordered sequence of periodic applications.

    Parameters
    ----------
    string_id:
        Stable integer identifier ``k`` (unique within a
        :class:`SystemModel`).
    worth:
        Worth factor ``I[k]``; the paper restricts it to ``{1, 10, 100}``
        but any positive value is accepted (validated against
        :data:`WORTH_FACTORS` only by the workload generator).
    period:
        ``P[k]`` in seconds; every application in the string must execute
        once per period.
    max_latency:
        ``Lmax[k]``: bound on the total time for one data set to traverse
        the string.
    comp_times:
        ``(n, M)`` array of nominal execution times ``t^k[i, j]``.
    cpu_utils:
        ``(n, M)`` array of nominal CPU utilizations ``u^k[i, j]`` in
        ``(0, 1]``.
    output_sizes:
        length ``n - 1`` array of inter-application output sizes
        ``O^k[i]`` in bytes.
    name:
        Optional human-readable name.
    """

    __slots__ = (
        "string_id",
        "worth",
        "period",
        "max_latency",
        "comp_times",
        "cpu_utils",
        "output_sizes",
        "name",
        "_avg_comp_times",
        "_avg_cpu_utils",
        "_work",
        "_intensity",
        "_imr_lists",
    )

    _avg_comp_times: FloatArray | None
    _avg_cpu_utils: FloatArray | None
    _intensity: FloatArray | None
    _imr_lists: ImrLists | None

    def __init__(
        self,
        string_id: int,
        worth: float,
        period: float,
        max_latency: float,
        comp_times: FloatArrayLike,
        cpu_utils: FloatArrayLike,
        output_sizes: FloatArrayLike,
        name: str = "",
    ) -> None:
        ct = np.asarray(comp_times, dtype=float).copy()
        cu = np.asarray(cpu_utils, dtype=float).copy()
        os_ = np.asarray(output_sizes, dtype=float).copy()
        if string_id < 0:
            raise ModelError(f"string_id must be >= 0, got {string_id}")
        if worth <= 0:
            raise ModelError(f"worth must be positive, got {worth}")
        if period <= 0:
            raise ModelError(f"period must be positive, got {period}")
        if max_latency <= 0:
            raise ModelError(f"max_latency must be positive, got {max_latency}")
        if ct.ndim != 2 or ct.shape[0] < 1:
            raise ModelError(
                f"comp_times must be a (n_apps, n_machines) matrix, got {ct.shape}"
            )
        if cu.shape != ct.shape:
            raise ModelError(
                f"cpu_utils shape {cu.shape} != comp_times shape {ct.shape}"
            )
        n_apps = ct.shape[0]
        if os_.shape != (n_apps - 1,):
            raise ModelError(
                f"output_sizes must have length n_apps-1={n_apps - 1}, "
                f"got shape {os_.shape}"
            )
        if not np.all(ct > 0):
            raise ModelError("all nominal execution times must be positive")
        if not (np.all(cu > 0) and np.all(cu <= 1.0)):
            raise ModelError("all nominal CPU utilizations must lie in (0, 1]")
        if n_apps > 1 and not np.all(os_ > 0):
            raise ModelError("all output sizes must be positive")
        for arr in (ct, cu, os_):
            arr.setflags(write=False)

        self.string_id = string_id
        self.worth = float(worth)
        self.period = float(period)
        self.max_latency = float(max_latency)
        self.comp_times = ct
        self.cpu_utils = cu
        self.output_sizes = os_
        self.name = name or f"string-{string_id}"
        self._avg_comp_times = None
        self._avg_cpu_utils = None
        work = ct * cu
        work.setflags(write=False)
        #: ``(n, M)`` fixed CPU work ``t[i, j] * u[i, j]`` per data set.
        self._work = work
        self._intensity = None
        self._imr_lists = None

    @classmethod
    def _attach(
        cls,
        string_id: int,
        worth: float,
        period: float,
        max_latency: float,
        comp_times: FloatArray,
        cpu_utils: FloatArray,
        output_sizes: FloatArray,
        work: FloatArray,
        avg_comp_times: FloatArray,
        avg_cpu_utils: FloatArray,
        intensity: FloatArray,
        imr_lists: ImrLists,
    ) -> "AppString":
        """Trusted zero-copy constructor for pre-validated arrays.

        The arrays must be read-only, canonical float64 and already
        satisfy every check ``__init__`` makes — e.g. the per-shard
        tables :func:`repro.workload.fleet.materialize_model` builds.
        The derived values (``work``, the eq. 8–9 averages, intensity
        and :meth:`imr_lists`) must be what the lazy accessors would
        compute, bit for bit; the fleet builds them for a whole group
        of equal-length strings at once.  Everything is adopted without
        copy or validation.
        """
        s = object.__new__(cls)
        s.string_id = string_id
        s.worth = worth
        s.period = period
        s.max_latency = max_latency
        s.comp_times = comp_times
        s.cpu_utils = cpu_utils
        s.output_sizes = output_sizes
        s.name = f"string-{string_id}"
        s._work = work
        s._avg_comp_times = avg_comp_times
        s._avg_cpu_utils = avg_cpu_utils
        s._intensity = intensity
        s._imr_lists = imr_lists
        return s

    @property
    def n_apps(self) -> int:
        """Number of applications ``n_k`` in the string."""
        return self.comp_times.shape[0]

    @property
    def n_machines(self) -> int:
        return self.comp_times.shape[1]

    @property
    def avg_comp_times(self) -> FloatArray:
        """``t_av^k[i]`` (eq. 8): per-application mean over machines (lazy)."""
        cached = self._avg_comp_times
        if cached is None:
            cached = self.comp_times.mean(axis=1)
            cached.setflags(write=False)
            self._avg_comp_times = cached
        return cached

    @property
    def avg_cpu_utils(self) -> FloatArray:
        """``u_av^k[i]`` (eq. 9): per-application mean over machines (lazy)."""
        cached = self._avg_cpu_utils
        if cached is None:
            cached = self.cpu_utils.mean(axis=1)
            cached.setflags(write=False)
            self._avg_cpu_utils = cached
        return cached

    @property
    def work(self) -> FloatArray:
        """CPU work ``t^k[i, j] * u^k[i, j]`` per data set (``(n, M)``)."""
        return self._work

    def computational_intensity(self) -> FloatArray:
        """``t_av[i] * u_av[i] / P[k]`` for each application.

        This is the quantity the IMR uses (step 1 / step 4b) to pick the
        most computationally intensive application.
        """
        cached = self._intensity
        if cached is None:
            cached = self.avg_comp_times * self.avg_cpu_utils / self.period
            cached.setflags(write=False)
            self._intensity = cached
        return cached

    def imr_lists(self) -> ImrLists:
        """Cached Python-list IMR constants for the scalar IMR.

        Returns ``(share_rows, transfer_demand, intensity_order)``:

        * ``share_rows[i][j]`` — utilization impact ``work[i, j] / P``
          (the ``app_share`` rows the IMR scores machines with);
        * ``transfer_demand[i]`` — route demand ``O[i] / P`` in
          bytes/second (empty for single-application strings);
        * ``intensity_order`` — application indices sorted by descending
          computational intensity, ties in ascending index order, so
          scanning it for the first unassigned application reproduces
          ``argmax`` over the unassigned set exactly.

        The doubles are ``tolist()`` conversions of the NumPy
        expressions (``work / period``, ``output_sizes / period``), so
        they are the identical values; plain list indexing just avoids
        per-element NumPy scalar boxing in the inner loop.
        """
        cached = self._imr_lists
        if cached is None:
            share_rows: list[list[float]] = (self._work / self.period).tolist()
            transfer_demand: list[float] = (
                (self.output_sizes / self.period).tolist() if self.n_apps > 1 else []
            )
            intensity = self.computational_intensity()
            order: list[int] = np.argsort(-intensity, kind="stable").tolist()
            cached = (share_rows, transfer_demand, order)
            self._imr_lists = cached
        return cached

    def nominal_path_time(
        self, machines: IntVectorLike, network: Network
    ) -> float:
        """Unshared end-to-end time of the string under ``machines``.

        The numerator of relative tightness (eq. 4): the sum of nominal
        execution times on the assigned machines plus nominal transfer
        times on the assigned routes.
        """
        if len(machines) != self.n_apps:
            raise ModelError(
                f"assignment length {len(machines)} != n_apps {self.n_apps}"
            )
        m = np.asarray(machines, dtype=int)
        total = float(self.comp_times[np.arange(self.n_apps), m].sum())
        if self.n_apps > 1:
            inv = network.inv_bandwidth[m[:-1], m[1:]]
            total += float((self.output_sizes * inv).sum())
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AppString):
            return NotImplemented
        return (
            self.string_id == other.string_id
            and self.worth == other.worth
            and self.period == other.period
            and self.max_latency == other.max_latency
            and np.array_equal(self.comp_times, other.comp_times)
            and np.array_equal(self.cpu_utils, other.cpu_utils)
            and np.array_equal(self.output_sizes, other.output_sizes)
        )

    def __hash__(self) -> int:  # pragma: no cover - convenience only
        return hash((self.string_id, self.period, self.comp_times.tobytes()))

    def __repr__(self) -> str:
        return (
            f"AppString(id={self.string_id}, n_apps={self.n_apps}, "
            f"worth={self.worth:g}, period={self.period:.3f}, "
            f"max_latency={self.max_latency:.3f})"
        )


class SystemModel:
    """The complete allocation problem instance.

    Bundles the hardware platform (machines + network) with the workload
    (the set of strings considered for mapping).  String ids must equal
    their position in ``strings`` — the workload generator guarantees
    this, and it lets every downstream component use dense arrays indexed
    by string id.
    """

    __slots__ = ("machines", "network", "strings")

    def __init__(
        self,
        network: Network,
        strings: Sequence[AppString],
        machines: Sequence[Machine] | None = None,
    ) -> None:
        if machines is None:
            machines = [Machine(j) for j in range(network.n_machines)]
        machines = list(machines)
        if len(machines) != network.n_machines:
            raise ModelError(
                f"{len(machines)} machines but network has {network.n_machines}"
            )
        for j, mach in enumerate(machines):
            if mach.index != j:
                raise ModelError(
                    f"machine at position {j} has index {mach.index}"
                )
        strings = list(strings)
        for k, s in enumerate(strings):
            if s.string_id != k:
                raise ModelError(
                    f"string at position {k} has id {s.string_id}; ids must "
                    "be consecutive starting at 0"
                )
            if s.n_machines != network.n_machines:
                raise ModelError(
                    f"string {k} sized for {s.n_machines} machines, "
                    f"network has {network.n_machines}"
                )
        self.machines = machines
        self.network = network
        self.strings = strings

    @property
    def n_machines(self) -> int:
        return self.network.n_machines

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    @property
    def total_worth_available(self) -> float:
        """Sum of worth over every string in the instance (the ideal)."""
        return float(sum(s.worth for s in self.strings))

    def subset(self, string_ids: Sequence[int]) -> "SystemModel":
        """A new model containing only ``string_ids`` (re-numbered).

        Useful for constructing reduced instances in tests and ablations.
        The strings are *re-identified* consecutively, so allocations do
        not transfer between the parent and subset models.
        """
        new_strings: list[AppString] = []
        for new_id, k in enumerate(string_ids):
            s = self.strings[k]
            new_strings.append(
                AppString(
                    string_id=new_id,
                    worth=s.worth,
                    period=s.period,
                    max_latency=s.max_latency,
                    comp_times=s.comp_times,
                    cpu_utils=s.cpu_utils,
                    output_sizes=s.output_sizes,
                    name=s.name,
                )
            )
        return SystemModel(self.network, new_strings, self.machines)

    def __repr__(self) -> str:
        return (
            f"SystemModel(n_machines={self.n_machines}, "
            f"n_strings={self.n_strings})"
        )
