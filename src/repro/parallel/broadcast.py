"""Read-only data for pool workers, shipped once per worker by token.

The process-parallel paths (``best_of_trials``, hence soak,
survivability and the experiments runner, and the fleet's shard
solves) hand every task the same large read-only input: a
:class:`~repro.core.model.SystemModel` or a compact
:class:`~repro.workload.fleet.FleetWorkload`.  Pickling it into every
task would cost serialization *per task*.  Instead,
:class:`SharedModelGroup` registers each payload under a token:

* in the parent on ``__enter__``, so tasks the supervisor quarantines
  and replays in-process resolve the token locally;
* in every worker through the pool initializer (:attr:`initializer` /
  :attr:`initargs`).  Under ``fork`` the worker inherits the entries
  and nothing is serialized; under ``spawn`` they are pickled once per
  worker, never per task.

Tasks carry only the token and resolve it with :func:`get_shared`, or
with :func:`get_worker_context`, which also hands out one persistent
:class:`~repro.core.profile.ProfileCache` per token, so profile
memoization survives across the trials a warm worker serves.  The
transport never changes results: the same seed produces the same elite
and the same fleet signature for every worker count and start method.

This module is the one sanctioned home for cross-process module state
(lint rule RPR009).
"""

from __future__ import annotations

import uuid
from types import TracebackType
from typing import Any, Sequence

from ..core.model import SystemModel
from ..core.profile import ProfileCache

__all__ = ["SharedModelGroup", "get_shared", "get_worker_context"]

#: token -> payload, in the parent (live groups) and in every worker.
_SHARED: dict[str, Any] = {}

#: token -> persistent per-process profile cache (see
#: :func:`get_worker_context`).
_CACHES: dict[str, ProfileCache] = {}


def _install(entries: tuple[tuple[str, Any], ...]) -> None:
    """Pool initializer: make every payload resolvable under its token."""
    _SHARED.update(entries)


def get_shared(token: str) -> Any:
    """The payload registered under ``token`` in this process."""
    try:
        return _SHARED[token]
    except KeyError:
        raise KeyError(
            f"unknown shared token {token!r}: no live SharedModelGroup "
            f"registered it in this process"
        ) from None


def get_worker_context(token: str) -> tuple[SystemModel, ProfileCache]:
    """Resolve a model token to ``(model, per-process ProfileCache)``.

    The cache is created on first use and kept until the group exits.
    """
    model = get_shared(token)
    cache = _CACHES.get(token)
    if cache is None:
        cache = _CACHES[token] = ProfileCache()
    return model, cache


class SharedModelGroup:
    """Register read-only payloads for a pool's workers.

    :attr:`tokens` lists one token per payload (same order as
    ``payloads``).  Pass :attr:`initializer` / :attr:`initargs` to the
    :class:`~repro.parallel.SupervisedPool`.  Exiting drops every entry
    (and its profile cache) from this process.
    """

    def __init__(self, payloads: Sequence[Any]) -> None:
        self.tokens = tuple(
            f"repro-{uuid.uuid4().hex[:12]}" for _ in payloads
        )
        self._entries = tuple(zip(self.tokens, payloads))
        self._entered = False

    initializer = staticmethod(_install)

    @property
    def initargs(self) -> tuple[object, ...]:
        return (self._entries,)

    def __enter__(self) -> "SharedModelGroup":
        if self._entered:
            raise RuntimeError("SharedModelGroup is not re-entrant")
        self._entered = True
        _install(self._entries)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        for token in self.tokens:
            _SHARED.pop(token, None)
            _CACHES.pop(token, None)
        self._entered = False

    def __repr__(self) -> str:
        return f"SharedModelGroup(tokens={self.tokens!r})"
