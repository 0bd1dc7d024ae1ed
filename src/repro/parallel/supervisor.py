"""Supervised process pool: one hardened layer under every parallel path.

``ProcessPoolExecutor`` is fragile in exactly the ways a shipboard
mission is not allowed to be: a single SIGKILLed worker condemns the
whole pool (``BrokenProcessPool``), a hung task parks the parent
forever, and a corrupted result is indistinguishable from a correct
one.  Before this module, each parallel call site hand-rolled a
different subset of failure handling.

:class:`SupervisedPool` centralizes all of it:

* **worker liveness** — worker pids are polled every heartbeat tick;
  deaths are counted and the pool transparently restarted;
* **per-task deadlines** — an attempt that outlives
  ``SupervisorConfig.task_timeout`` has its (unattributable) worker
  pool killed and restarted; collateral in-flight tasks are resubmitted
  without consuming one of their attempts;
* **bounded jittered-backoff retry** — transient failures (worker
  death, timeout, corrupted envelope) are retried on the pool under the
  shared :class:`~repro.parallel.retry.RetryPolicy` schedule;
* **poison-task quarantine + deterministic in-process replay** — a task
  that exhausts its attempts is quarantined and, by default, replayed
  *in the parent process* with no chaos injection.  Because every task
  this repository submits is a pure function of its arguments, the
  replayed value is bit-identical to what a healthy worker would have
  produced — results never depend on *where* a task ran;
* **result integrity** — worker results travel in a tagged envelope
  checked against the expected ``(task, attempt)``; a truncated or
  mismatched envelope is a transient failure, never a silent wrong
  answer;
* **chaos injection** — a seeded
  :class:`~repro.parallel.chaos.ChaosPolicy` threads through the worker
  shim so tests and the ``repro chaos`` soak can kill/delay/corrupt
  deterministically.

Results are collected **by task index**, so ``run()`` returns the same
ordered values regardless of completion order, retries, or replays —
the bit-identity contract ``tests/test_chaos.py`` asserts.

Deterministic task exceptions (the task body itself raising) are *not*
retried: re-running a pure function cannot change its outcome.  They
finalize the task with ``TaskOutcome.error`` set.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from types import TracebackType
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.exceptions import ModelError
from .chaos import ChaosPolicy
from .retry import RetryPolicy, backoff_delays

__all__ = [
    "CorruptResultError",
    "PoolStats",
    "SupervisedPool",
    "SupervisorConfig",
    "Task",
    "TaskOutcome",
    "TaskQuarantinedError",
]


class TaskQuarantinedError(RuntimeError):
    """A task exhausted its attempts and in-process replay was disabled."""


class CorruptResultError(RuntimeError):
    """A worker returned a truncated or mismatched result envelope."""


#: Version-tagged result envelope: (tag, task_id, attempt, value).
_ENVELOPE_TAG = "repro-supervised/1"


def _execute_supervised(
    task_id: int,
    attempt: int,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: Mapping[str, Any] | None,
    chaos: ChaosPolicy | None,
) -> tuple[str, int, int, Any]:
    """Worker-side shim (module-level: fork/pickle safe, RPR009).

    Applies chaos faults when a policy is threaded through, runs the
    task body, and wraps the value in a tagged envelope the supervisor
    validates — a corrupted transport can therefore be *detected*
    instead of silently delivering the wrong task's result.
    """
    decision = None
    if chaos is not None:
        decision = chaos.inject_before(task_id, attempt)
    value = fn(*args, **dict(kwargs or {}))
    if decision is not None and decision.corrupt:
        # Simulated transport corruption: the envelope comes back with a
        # mismatched task id and no payload, as a truncated frame would.
        return (_ENVELOPE_TAG, task_id ^ 0x5A5A5A, attempt, None)
    return (_ENVELOPE_TAG, task_id, attempt, value)


@dataclass(frozen=True)
class Task:
    """One unit of pool work: a picklable callable plus its arguments."""

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] | None = None

    def run_inline(self) -> Any:
        """Execute the task in the calling process (the replay path)."""
        return self.fn(*self.args, **dict(self.kwargs or {}))


@dataclass(frozen=True)
class TaskOutcome:
    """Final disposition of one task after supervision."""

    index: int
    value: Any = None
    error: BaseException | None = None
    attempts: int = 0
    replayed: bool = False
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PoolStats:
    """Counters accumulated across every ``run()`` of one pool."""

    tasks: int = 0
    completed: int = 0
    task_errors: int = 0
    retries: int = 0
    timeouts: int = 0
    corrupted: int = 0
    worker_deaths: int = 0
    pool_restarts: int = 0
    quarantined: int = 0
    replayed_in_process: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def lost_tasks(self) -> int:
        """Tasks that finished with neither a value nor a task error.

        Always 0 by construction — every submitted task is driven to a
        value (possibly via in-process replay) or a recorded error; the
        property exists so soak harnesses can assert the invariant.
        """
        return self.tasks - self.completed - self.task_errors


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs, shared by every migrated call site.

    Parameters
    ----------
    task_timeout:
        Per-task deadline in seconds, measured from dispatch (the same
        wall-clock-budget semantics as
        :class:`repro.service.deadline.Deadline`).  ``None`` disables
        deadline enforcement.  An expired attempt counts as a transient
        failure; because the stdlib pool cannot attribute a worker to a
        task, enforcement kills and restarts the whole pool, and
        collateral in-flight tasks are resubmitted for free.
    retry:
        Backoff schedule for transient failures.  ``max_attempts`` is
        the poison threshold: a task failing transiently that many
        times is quarantined.
    retry_seed:
        Seed for the jitter stream (RPR002: no ambient RNG state).
        Jitter shapes *timing* only, never results.
    heartbeat_interval:
        Liveness/deadline polling tick in seconds.
    replay_in_process:
        Quarantined tasks are replayed in the parent process (the
        deterministic safe harbor).  Disable to surface
        :class:`TaskQuarantinedError` instead.
    """

    task_timeout: float | None = None
    retry: RetryPolicy = RetryPolicy(
        max_attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.25
    )
    retry_seed: int = 0
    heartbeat_interval: float = 0.05
    replay_in_process: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ModelError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.heartbeat_interval <= 0:
            raise ModelError(
                "heartbeat_interval must be positive, got "
                f"{self.heartbeat_interval}"
            )


@dataclass
class _TaskState:
    """Supervisor-side bookkeeping for one submitted task."""

    attempts: int = 0
    finished: bool = False
    dispatched_at: float = 0.0
    delays: Iterator[float] | None = None


class SupervisedPool:
    """Failure-supervised ``ProcessPoolExecutor`` wrapper.

    Use as a context manager; submit homogeneous batches through
    :meth:`run`.  The pool may be reused for several ``run()`` calls;
    ``stats`` accumulates across them.

    Parameters
    ----------
    max_workers:
        Worker process count (and the in-flight dispatch cap).
    initializer / initargs:
        Forwarded to every (re)created executor.  A
        :class:`~repro.parallel.SharedModelGroup` installs its payloads
        here, so workers of a restarted pool get them again.
    config:
        Supervision knobs (defaults are fine for short tasks).
    chaos:
        Optional fault injector threaded into the worker shim.  Chaos
        never runs in the parent, so quarantine replays are chaos-free.
    sleep / clock:
        Injectable timing (tests use a fake clock and a recording
        sleep); the clock must be monotonic (RPR008).
    """

    def __init__(
        self,
        max_workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        config: SupervisorConfig | None = None,
        chaos: ChaosPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_workers < 1:
            raise ModelError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.config = config or SupervisorConfig()
        self.chaos = chaos
        self.stats = PoolStats()
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._sleep = sleep
        self._clock = clock
        self._pool: ProcessPoolExecutor | None = None
        self._heartbeats: dict[int, float] = {}
        self._dead_pids: set[int] = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        """Shut the executor down; the pool cannot be reused after."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            kwargs: dict[str, Any] = {"max_workers": self.max_workers}
            if self._initializer is not None:
                kwargs["initializer"] = self._initializer
                kwargs["initargs"] = self._initargs
            self._pool = ProcessPoolExecutor(**kwargs)
        return self._pool

    def _discard_pool(self, kill_workers: bool = False) -> None:
        """Tear the current executor down (liveness swept first)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._poll_liveness(pool)
        if kill_workers and hasattr(signal, "SIGKILL"):
            for pid in self._pids(pool):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already reaped
                    continue
        pool.shutdown(wait=False, cancel_futures=True)
        self.stats.pool_restarts += 1

    # -- liveness ----------------------------------------------------------

    @staticmethod
    def _pids(pool: ProcessPoolExecutor | None) -> tuple[int, ...]:
        procs = getattr(pool, "_processes", None) if pool is not None else None
        return tuple(sorted(procs)) if procs else ()

    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the current executor's worker processes."""
        return self._pids(self._pool)

    def heartbeats(self) -> dict[int, float]:
        """pid -> clock time the worker was last observed alive."""
        return dict(self._heartbeats)

    def _poll_liveness(self, pool: ProcessPoolExecutor | None = None) -> None:
        pool = pool if pool is not None else self._pool
        procs = getattr(pool, "_processes", None) if pool is not None else None
        if not procs:
            return
        now = self._clock()
        for pid, proc in list(procs.items()):
            try:
                alive = proc.is_alive()
            except ValueError:  # pragma: no cover - process already closed
                alive = False
            if alive:
                self._heartbeats[pid] = now
            elif pid not in self._dead_pids:
                self._dead_pids.add(pid)
                self._heartbeats.pop(pid, None)
                self.stats.worker_deaths += 1

    # -- the supervision loop ----------------------------------------------

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[int, TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Drive ``tasks`` to completion under supervision.

        Returns one :class:`TaskOutcome` per task, **in task order** —
        independent of completion order, retries, pool restarts, or
        replays.  ``on_result`` fires once per task as it finalizes
        (checkpointing hooks ride here); an exception it raises aborts
        the run and propagates.
        """
        if self._closed:
            raise ModelError("SupervisedPool is closed")
        tasks = list(tasks)
        n = len(tasks)
        outcomes: list[TaskOutcome | None] = [None] * n
        self.stats.tasks += n
        if n == 0:
            return []

        policy = self.config.retry
        jitter_rng = np.random.default_rng(self.config.retry_seed)
        states = [_TaskState() for _ in range(n)]
        ready: deque[int] = deque(range(n))
        backoff: list[tuple[float, int]] = []
        inflight: dict[Future[Any], int] = {}
        remaining = n

        def finalize(
            index: int,
            value: Any = None,
            error: BaseException | None = None,
            replayed: bool = False,
            quarantined: bool = False,
        ) -> None:
            nonlocal remaining
            states[index].finished = True
            remaining -= 1
            outcome = TaskOutcome(
                index=index,
                value=value,
                error=error,
                attempts=states[index].attempts,
                replayed=replayed,
                quarantined=quarantined,
            )
            outcomes[index] = outcome
            if error is None:
                self.stats.completed += 1
            else:
                self.stats.task_errors += 1
            if on_result is not None:
                on_result(index, outcome)

        def quarantine(index: int) -> None:
            self.stats.quarantined += 1
            if not self.config.replay_in_process:
                finalize(
                    index,
                    error=TaskQuarantinedError(
                        f"task {index} failed transiently "
                        f"{states[index].attempts} time(s)"
                    ),
                    quarantined=True,
                )
                return
            # Deterministic safe harbor: replay in the parent, chaos-free.
            self.stats.replayed_in_process += 1
            try:
                value = tasks[index].run_inline()
            except Exception as exc:
                finalize(index, error=exc, replayed=True, quarantined=True)
            else:
                finalize(index, value=value, replayed=True, quarantined=True)

        def transient(index: int, free_retry: bool = False) -> None:
            state = states[index]
            if free_retry:
                # Collateral damage (e.g. pool killed for another task's
                # timeout): resubmit without consuming an attempt.
                state.attempts -= 1
                ready.append(index)
                return
            if state.attempts >= policy.max_attempts:
                quarantine(index)
                return
            self.stats.retries += 1
            if state.delays is None:
                state.delays = backoff_delays(policy, jitter_rng)
            try:
                delay = next(state.delays)
            except StopIteration:  # pragma: no cover - schedule exhausted
                delay = policy.max_delay
            backoff.append((self._clock() + delay, index))

        tick = self.config.heartbeat_interval
        while remaining > 0:
            now = self._clock()

            if backoff:
                due = sorted(i for t, i in backoff if t <= now)
                if due:
                    backoff = [(t, i) for t, i in backoff if t > now]
                    ready.extend(due)

            while ready and len(inflight) < self.max_workers:
                index = ready.popleft()
                state = states[index]
                if state.finished:  # pragma: no cover - defensive
                    continue
                state.attempts += 1
                task = tasks[index]
                try:
                    future = self._ensure_pool().submit(
                        _execute_supervised,
                        index,
                        state.attempts,
                        task.fn,
                        task.args,
                        task.kwargs,
                        self.chaos,
                    )
                except Exception:
                    # The executor refused the submission (broken or shut
                    # down between batches): restart and retry.
                    self._discard_pool()
                    transient(index)
                    continue
                inflight[future] = index
                state.dispatched_at = self._clock()

            if not inflight:
                if backoff:
                    wake = min(t for t, _ in backoff)
                    pause = wake - self._clock()
                    if pause > 0:
                        self._sleep(pause)
                continue

            done, _ = wait(
                list(inflight), timeout=tick, return_when=FIRST_COMPLETED
            )
            self._poll_liveness()
            pool_died = False
            for future in done:
                index = inflight.pop(future)
                try:
                    payload = future.result(timeout=0)
                except BrokenProcessPool:
                    pool_died = True
                    transient(index)
                except CancelledError:  # pragma: no cover - defensive
                    transient(index)
                except Exception as exc:
                    # The task body raised: deterministic, not retried.
                    finalize(index, error=exc)
                else:
                    value, corrupt = self._open_envelope(
                        payload, index, states[index].attempts
                    )
                    if corrupt is not None:
                        self.stats.corrupted += 1
                        transient(index)
                    else:
                        finalize(index, value=value)
            if pool_died:
                # Remaining in-flight futures of the dead executor are
                # (or will instantly be) failed too; drop the executor so
                # the next dispatch builds a fresh one.
                self._discard_pool()

            timeout = self.config.task_timeout
            if timeout is not None and inflight:
                now = self._clock()
                expired = {
                    index
                    for future, index in inflight.items()
                    if not future.done()
                    and now - states[index].dispatched_at > timeout
                }
                if expired:
                    self.stats.timeouts += len(expired)
                    # A hung worker can only be reclaimed by killing it,
                    # and the stdlib pool cannot say *which* worker runs
                    # which task — so the whole pool goes.  Finished-but-
                    # unprocessed futures keep their results and are
                    # consumed on the next loop pass.
                    for future, index in list(inflight.items()):
                        if future.done():
                            continue
                        del inflight[future]
                        transient(index, free_retry=index not in expired)
                    self._discard_pool(kill_workers=True)

        return [outcome for outcome in outcomes if outcome is not None]

    @staticmethod
    def _open_envelope(
        payload: Any, index: int, attempt: int
    ) -> tuple[Any, str | None]:
        """Validate a result envelope: ``(value, None)`` or ``(None, why)``."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 4
            and payload[0] == _ENVELOPE_TAG
            and payload[1] == index
            and payload[2] == attempt
        ):
            return payload[3], None
        return None, (
            f"corrupted or truncated result envelope for task {index} "
            f"attempt {attempt}"
        )

    def __repr__(self) -> str:
        return (
            f"SupervisedPool(max_workers={self.max_workers}, "
            f"chaos={self.chaos!r}, closed={self._closed})"
        )
