"""Process-parallel infrastructure: supervised pools, chaos, broadcast.

:class:`SupervisedPool` (:mod:`repro.parallel.supervisor`) is the single
hardened executor layer every parallel call site runs on — worker
liveness, per-task deadlines, jittered-backoff retry, poison-task
quarantine with deterministic in-process replay, and result-envelope
integrity checks.  :class:`ChaosPolicy` (:mod:`repro.parallel.chaos`)
injects seeded worker kills / delays / corrupted returns through it for
tests and the ``repro chaos`` soak.  :mod:`repro.parallel.broadcast`
ships read-only payloads (models, fleet workloads) to workers once per
worker through the pool initializer (:class:`SharedModelGroup`);
:mod:`repro.parallel.retry` is the shared home of the jittered-backoff
helpers.  See ``docs/robustness.md`` for the determinism-under-failure
contract and ``docs/performance.md`` for how payloads reach workers.
"""

from .broadcast import SharedModelGroup, get_shared, get_worker_context
from .chaos import ChaosDecision, ChaosPolicy
from .retry import RetryError, RetryPolicy, backoff_delays, retry_call
from .supervisor import (
    CorruptResultError,
    PoolStats,
    SupervisedPool,
    SupervisorConfig,
    Task,
    TaskOutcome,
    TaskQuarantinedError,
)

__all__ = [
    "ChaosDecision",
    "ChaosPolicy",
    "CorruptResultError",
    "PoolStats",
    "RetryError",
    "RetryPolicy",
    "SharedModelGroup",
    "SupervisedPool",
    "SupervisorConfig",
    "Task",
    "TaskOutcome",
    "TaskQuarantinedError",
    "backoff_delays",
    "get_shared",
    "get_worker_context",
    "retry_call",
]
