"""Retry with exponential backoff and jitter.

Transient failures — a worker hiccup, a numerically unlucky GA trial
raising, a process pool losing a worker — should be retried, but naive
immediate retries turn one glitch into a thundering herd.
:func:`retry_call` implements the standard remedy: exponential backoff
with symmetric jitter, capped, and bounded by the caller's remaining
deadline, and :func:`backoff_delays` exposes the bare schedule for
callers that manage their own retry loop (the
:class:`~repro.parallel.supervisor.SupervisedPool` does).

This module is the shared home for both consumers: the online service
(:mod:`repro.service`, which re-exports the public names at package
level) and the supervised process pool (:mod:`repro.parallel.supervisor`).

Randomness flows through an injected seeded
:class:`numpy.random.Generator` (RPR002: no ambient RNG state), and the
sleep function is injectable so tests never actually wait.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from ..core.exceptions import ModelError

__all__ = ["RetryError", "RetryPolicy", "backoff_delays", "retry_call"]

T = TypeVar("T")


class RetryError(RuntimeError):
    """All attempts failed; ``__cause__`` is the last underlying error."""


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient-failure retries.

    Attempt ``i`` (0-based) sleeps
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ModelError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ModelError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ModelError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ModelError(f"jitter must lie in [0, 1), got {self.jitter}")


def backoff_delays(
    policy: RetryPolicy, rng: np.random.Generator
) -> Iterator[float]:
    """The jittered sleep (seconds) before each retry, one per re-attempt."""
    for attempt in range(policy.max_attempts - 1):
        nominal = min(
            policy.max_delay, policy.base_delay * policy.multiplier**attempt
        )
        scale = 1.0 + policy.jitter * float(rng.uniform(-1.0, 1.0))
        yield nominal * scale


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    rng: np.random.Generator | int | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    give_up_after: Callable[[], bool] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    Parameters
    ----------
    fn:
        Zero-argument callable (close over the real arguments).
    policy:
        Backoff schedule; defaults to :class:`RetryPolicy`'s defaults.
    rng:
        Seed or generator for the jitter draw.
    retry_on:
        Exception types considered transient; anything else propagates
        immediately.
    sleep:
        Injectable sleep (tests pass a recorder).
    give_up_after:
        Optional predicate checked before every retry; returning True
        (e.g. "the request deadline expired") stops retrying and raises
        :class:`RetryError` from the last failure.

    Raises
    ------
    RetryError
        When every attempt failed (or ``give_up_after`` cut retries
        short); chained from the final underlying exception.
    """
    policy = policy or RetryPolicy()
    generator = np.random.default_rng(rng)
    delays = backoff_delays(policy, generator)
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == policy.max_attempts - 1:
                break
            if give_up_after is not None and give_up_after():
                raise RetryError(
                    f"gave up after {attempt + 1} attempt(s): deadline "
                    "pressure"
                ) from exc
            sleep(next(delays))
    raise RetryError(
        f"all {policy.max_attempts} attempts failed"
    ) from last
