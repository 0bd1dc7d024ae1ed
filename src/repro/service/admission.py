"""Admission control and load shedding for the allocation service.

Two mechanisms keep the platform inside its feasibility envelope:

* **admission control** — arriving strings wait in a worth-priority
  :class:`RequestQueue`; an arrival is *rejected* when admitting it
  would push projected slackness below the current health state's
  floor (the paper's lexicographic metric in reverse: worth is only
  worth having while the system keeps slack);
* **load shedding** — when drift or faults erode slackness below the
  floor, :func:`plan_shedding` picks the cheapest set of active strings
  to drop: lowest worth first, re-projecting after each drop, stopping
  as soon as the floor is met again.

Both mechanisms are pure over an injected projection callable
``slackness_of(active_ids) -> float | None`` (``None`` = infeasible), so
they are unit-testable without building system models.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

__all__ = [
    "QueuedRequest",
    "RequestQueue",
    "plan_shedding",
    "shed_order",
]


@dataclass(frozen=True)
class QueuedRequest:
    """One pending arrival: which service, how much it is worth."""

    service_id: int
    worth: float


class RequestQueue:
    """Worth-priority queue of pending arrivals.

    Highest worth pops first; ties break FIFO (a stable sequence
    number), so equal-worth requests are served in arrival order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, QueuedRequest]] = []
        self._seq = itertools.count()
        self.n_enqueued = 0

    def push(self, request: QueuedRequest) -> None:
        heapq.heappush(
            self._heap, (-request.worth, next(self._seq), request)
        )
        self.n_enqueued += 1

    def pop(self) -> QueuedRequest:
        """Remove and return the highest-worth pending request."""
        return heapq.heappop(self._heap)[2]

    def peek(self) -> QueuedRequest:
        return self._heap[0][2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def shed_order(worths: Mapping[int, float]) -> list[int]:
    """Ids ordered cheapest-to-shed first: ascending worth, ties by id."""
    return sorted(worths, key=lambda k: (worths[k], k))


def plan_shedding(
    active: Iterable[int],
    worths: Mapping[int, float],
    slackness_of: Callable[[frozenset[int]], float | None],
    floor: float,
) -> tuple[list[int], float | None]:
    """Pick which active services to shed to restore the slack floor.

    Drops the lowest-worth service, re-projects, and repeats until the
    projected slackness reaches ``floor`` (or nothing is left).  Returns
    the shed ids (in shed order) and the final projected slackness.

    The one-at-a-time greedy mirrors :class:`ShedPolicy`'s
    worth-preference: high-worth services keep their slots for as long
    as feasibly possible.
    """
    kept = set(active)
    shed: list[int] = []
    slack = slackness_of(frozenset(kept))
    candidates = [k for k in shed_order(worths) if k in kept]
    for victim in candidates:
        if slack is not None and slack >= floor:
            break
        if not kept:
            break
        kept.discard(victim)
        shed.append(victim)
        slack = slackness_of(frozenset(kept))
    return shed, slack
