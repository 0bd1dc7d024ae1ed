"""Zero-copy :class:`~repro.core.model.SystemModel` broadcast to workers.

The process-parallel trial paths (``best_of_trials``, hence soak,
survivability and the experiments runner) repeatedly ship the same
read-only model to every worker.  Pickling it into every task
costs serialization *per task* and a private copy *per worker*.  This
module broadcasts the model's large arrays **once per worker**:

* **inherit transport** (fork start method): the parent parks the model
  in a module-level registry before the pool forks; children inherit
  the registry copy-on-write, so nothing is serialized at all.
* **shm transport** (spawn or explicit): the bandwidth matrix and every
  string's ``comp_times`` / ``cpu_utils`` / ``output_sizes`` are packed
  into a single :mod:`multiprocessing.shared_memory` block.  Workers
  attach via the pool initializer and rebuild the model with the
  trusted ``_attach`` constructors — the arrays are *views into shared
  memory*, never copied, and the recomputed derived quantities are
  bit-identical to the source model's.

Workers additionally keep one persistent
:class:`~repro.core.profile.ProfileCache` per broadcast token, so
profile memoization survives across the tasks (e.g. trials) a warm
worker serves.

Pool callers go through :func:`broadcast_models`, the one place that
picks the transport: it enters a :class:`SharedModelGroup`, or hands
back the models themselves for plain pickling when broadcast setup
fails (e.g. ``/dev/shm`` is full), and reports which transport it
used.  The transport never changes results — the same seed produces
the same elite over a broadcast or over pickling, which
``tests/test_broadcast.py`` asserts.

Fleet shard solves do not broadcast: each worker builds its own shard
models from the compact workload (see :mod:`repro.fleet.solver`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ..core.model import AppString, Machine, Network, SystemModel
from ..core.profile import ProfileCache

__all__ = [
    "ModelBroadcast",
    "SharedModel",
    "SharedModelGroup",
    "active_segment_names",
    "broadcast_models",
    "get_worker_context",
]

#: Parent-side registry.  Entries added before a pool forks are
#: inherited copy-on-write by its workers; the parent itself also
#: resolves tokens here, so in-process fallback re-runs always work.
_FORK_REGISTRY: dict[str, SystemModel] = {}

#: Worker-side state: token -> (model, persistent per-worker cache).
_WORKER_STATE: dict[str, tuple[SystemModel, ProfileCache]] = {}

#: Worker-side attached shared-memory blocks (kept alive while the
#: model views reference their buffers).
_WORKER_SHM: dict[str, shared_memory.SharedMemory] = {}

#: Per-string scalar metadata shipped alongside the shm block.
_StringMeta = tuple[float, float, float, int, str]

#: Parent-side leak registry: every shared-memory segment this process
#: *created* (token -> segment).  ``SharedModel.__exit__`` is the happy
#: path; the atexit sweep is the crash path, so a pool dying mid-run
#: (or the parent exiting with a broadcast still open) can never strand
#: a ``/dev/shm`` entry.
_PARENT_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}

_ATEXIT_REGISTERED = False


def _cleanup_parent_segments() -> None:
    """Unlink every segment this process created and never released."""
    for token in list(_PARENT_SEGMENTS):
        shm = _PARENT_SEGMENTS.pop(token)
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - gone
            continue


def _register_parent_segment(
    token: str, shm: shared_memory.SharedMemory
) -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_cleanup_parent_segments)
        _ATEXIT_REGISTERED = True
    _PARENT_SEGMENTS[token] = shm


def active_segment_names() -> tuple[str, ...]:
    """Shared-memory block names this process created and not yet freed.

    Empty outside live ``SharedModel`` contexts — soak harnesses and the
    leak regression test assert exactly that.
    """
    return tuple(sorted(shm.name for shm in _PARENT_SEGMENTS.values()))


def _pack_model(
    model: SystemModel, token: str
) -> tuple[shared_memory.SharedMemory, dict[str, object]]:
    """Copy the model's large arrays into one shared-memory block."""
    M = model.n_machines
    total = M * M
    for s in model.strings:
        total += 2 * s.n_apps * M + max(s.n_apps - 1, 0)
    shm = shared_memory.SharedMemory(
        create=True, size=max(total, 1) * 8, name=f"{token}-blk"
    )
    buf: np.ndarray = np.ndarray((total,), dtype=np.float64, buffer=shm.buf)
    off = 0

    def put(a: np.ndarray) -> None:
        nonlocal off
        flat = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
        buf[off : off + flat.size] = flat
        off += flat.size

    put(model.network.bandwidth)
    strings_meta: list[_StringMeta] = []
    for s in model.strings:
        put(s.comp_times)
        put(s.cpu_utils)
        put(s.output_sizes)
        strings_meta.append(
            (s.worth, s.period, s.max_latency, s.n_apps, s.name)
        )
    meta: dict[str, object] = {
        "n_machines": M,
        "total": total,
        "strings": strings_meta,
        "machine_names": [m.name for m in model.machines],
    }
    return shm, meta


def _unpack_model(
    shm: shared_memory.SharedMemory, meta: dict[str, object]
) -> SystemModel:
    """Rebuild the model as zero-copy views into the shm block."""
    M = int(meta["n_machines"])  # type: ignore[call-overload]
    total = int(meta["total"])  # type: ignore[call-overload]
    buf: np.ndarray = np.ndarray((total,), dtype=np.float64, buffer=shm.buf)
    off = 0

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal off
        n = 1
        for d in shape:
            n *= d
        view = buf[off : off + n].reshape(shape)
        view.setflags(write=False)
        off += n
        return view

    network = Network._attach(take((M, M)))
    strings: list[AppString] = []
    strings_meta: list[_StringMeta] = meta["strings"]  # type: ignore[assignment]
    for k, (worth, period, max_latency, n_apps, name) in enumerate(
        strings_meta
    ):
        strings.append(
            AppString._attach(
                k,
                worth,
                period,
                max_latency,
                take((n_apps, M)),
                take((n_apps, M)),
                take((max(n_apps - 1, 0),)),
                name,
            )
        )
    machine_names: list[str] = meta["machine_names"]  # type: ignore[assignment]
    machines = [Machine(j, nm) for j, nm in enumerate(machine_names)]
    return SystemModel(network, strings, machines)


def _init_worker_shm(
    token: str, shm_name: str, meta: dict[str, object]
) -> None:
    """Pool initializer: attach the block and build the worker model."""
    if token in _WORKER_STATE:
        return
    # Attaching re-registers the segment with the resource tracker; the
    # tracker fd is inherited from the parent, so the duplicate register
    # collapses in its cache and the parent's unlink() cleans up once.
    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER_SHM[token] = shm
    _WORKER_STATE[token] = (_unpack_model(shm, meta), ProfileCache())


def get_worker_context(token: str) -> tuple[SystemModel, ProfileCache]:
    """Resolve a broadcast token to ``(model, per-worker ProfileCache)``.

    Checks the worker-side state first (shm transport), then the
    fork-inherited registry (inherit transport and in-parent fallback
    re-runs), creating the persistent per-worker cache on first use.
    """
    ctx = _WORKER_STATE.get(token)
    if ctx is None:
        model = _FORK_REGISTRY.get(token)
        if model is None:
            raise KeyError(
                f"unknown shared-model token {token!r}: broadcast not set "
                f"up in this process"
            )
        ctx = (model, ProfileCache())
        _WORKER_STATE[token] = ctx
    return ctx


class SharedModel:
    """Context manager owning one model broadcast.

    Inside the ``with`` block, :attr:`token` is a process-safe reference
    that workers (and the parent itself) resolve via
    :func:`get_worker_context`; pass :attr:`initializer` /
    :attr:`initargs` to the ``ProcessPoolExecutor``.  On exit, all
    transport resources (registry entry, shared-memory block) are
    released.

    Parameters
    ----------
    model:
        The model to broadcast.
    transport:
        ``"inherit"`` (fork copy-on-write), ``"shm"``
        (``multiprocessing.shared_memory``), or ``"auto"`` (inherit
        when the start method is ``fork``, else shm).
    """

    def __init__(self, model: SystemModel, transport: str = "auto") -> None:
        if transport not in ("auto", "shm", "inherit"):
            raise ValueError(f"unknown transport {transport!r}")
        if transport == "auto":
            transport = (
                "inherit"
                if multiprocessing.get_start_method() == "fork"
                else "shm"
            )
        self.model = model
        self.transport = transport
        self.token = f"repro-{uuid.uuid4().hex[:12]}"
        self._shm: shared_memory.SharedMemory | None = None
        self._meta: dict[str, object] | None = None
        self._entered = False

    @property
    def initializer(self) -> Callable[..., None] | None:
        """Pool initializer for the shm transport (None for inherit)."""
        if self.transport == "shm":
            return _init_worker_shm
        return None

    @property
    def initargs(self) -> tuple[object, ...]:
        if self.transport == "shm":
            assert self._shm is not None and self._meta is not None
            return (self.token, self._shm.name, self._meta)
        return ()

    def __enter__(self) -> "SharedModel":
        if self._entered:
            raise RuntimeError("SharedModel is not re-entrant")
        self._entered = True
        # Parent-side registration happens for every transport so that
        # in-process fallback re-runs resolve the token locally.
        _FORK_REGISTRY[self.token] = self.model
        if self.transport == "shm":
            try:
                self._shm, self._meta = _pack_model(self.model, self.token)
            except Exception:
                _FORK_REGISTRY.pop(self.token, None)
                self._entered = False
                raise
            _register_parent_segment(self.token, self._shm)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        _FORK_REGISTRY.pop(self.token, None)
        # Drop any worker-side state this process accumulated for the
        # token (relevant when the parent resolved its own token).
        _WORKER_STATE.pop(self.token, None)
        _PARENT_SEGMENTS.pop(self.token, None)
        shm = self._shm
        if shm is not None:
            self._shm = None
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._entered = False

    def __repr__(self) -> str:
        return (
            f"SharedModel(token={self.token!r}, "
            f"transport={self.transport!r})"
        )


def _init_worker_shm_group(
    specs: tuple[tuple[str, str, dict[str, object]], ...]
) -> None:
    """Pool initializer for a multi-model broadcast: attach every block."""
    for token, shm_name, meta in specs:
        _init_worker_shm(token, shm_name, meta)


class SharedModelGroup:
    """Broadcast several models at once.

    Wraps one :class:`SharedModel` per model under a single context
    manager and merges their pool wiring: :attr:`tokens` lists one token
    per model (same order as ``models``), and :attr:`initializer` /
    :attr:`initargs` attach *all* shared-memory blocks in each worker.
    Exiting releases every broadcast, even when one member's teardown
    raises.
    """

    def __init__(
        self, models: Sequence[SystemModel], transport: str = "auto"
    ) -> None:
        self._shared = [SharedModel(m, transport=transport) for m in models]
        self._entered = False

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(s.token for s in self._shared)

    @property
    def transport(self) -> str:
        return self._shared[0].transport if self._shared else "inherit"

    @property
    def initializer(self) -> Callable[..., None] | None:
        if any(s.transport == "shm" for s in self._shared):
            return _init_worker_shm_group
        return None

    @property
    def initargs(self) -> tuple[object, ...]:
        if self.initializer is None:
            return ()
        return (
            tuple(
                s.initargs for s in self._shared if s.transport == "shm"
            ),
        )

    def __enter__(self) -> "SharedModelGroup":
        if self._entered:
            raise RuntimeError("SharedModelGroup is not re-entrant")
        self._entered = True
        entered: list[SharedModel] = []
        try:
            for s in self._shared:
                s.__enter__()
                entered.append(s)
        except Exception:
            for s in reversed(entered):
                s.__exit__(None, None, None)
            self._entered = False
            raise
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        first_error: BaseException | None = None
        for s in reversed(self._shared):
            try:
                s.__exit__(exc_type, exc, tb)
            except BaseException as err:  # pragma: no cover - defensive
                if first_error is None:
                    first_error = err
        self._entered = False
        if first_error is not None:  # pragma: no cover - defensive
            raise first_error

    def __repr__(self) -> str:
        return (
            f"SharedModelGroup(n={len(self._shared)}, "
            f"transport={self.transport!r})"
        )


@dataclass(frozen=True)
class ModelBroadcast:
    """Pool wiring for a set of models, as :func:`broadcast_models`
    yields it.

    ``refs[i]`` is what a task passes for ``models[i]``: a broadcast
    token (resolve it with :func:`get_worker_context`) or, on the
    pickle fallback, the model itself.
    """

    refs: tuple[Union[SystemModel, str], ...]
    #: ``"inherit"``, ``"shm"`` or ``"pickle"``.
    transport: str
    initializer: Callable[..., None] | None
    initargs: tuple[object, ...]


@contextmanager
def broadcast_models(
    models: Sequence[SystemModel],
) -> Iterator[ModelBroadcast]:
    """Broadcast ``models`` to a pool's workers, or fall back to pickling.

    Enters a :class:`SharedModelGroup` (transport chosen by the start
    method) and releases it on exit.  When setup raises, the models
    travel pickled inside each task instead: ``refs`` are the models
    themselves and ``transport`` is ``"pickle"``.
    """
    group = SharedModelGroup(models)
    try:
        group.__enter__()
    except Exception:
        yield ModelBroadcast(tuple(models), "pickle", None, ())
        return
    try:
        yield ModelBroadcast(
            group.tokens, group.transport, group.initializer, group.initargs
        )
    finally:
        group.__exit__(None, None, None)
