"""A deterministic, seedable discrete-event scheduler.

The scheduler is the heart of the event-driven transaction runtime: every
network hop, batch timeout, and fault-injection window is an event on one
priority queue, ordered by ``(time, priority, sequence)``.  The sequence
number breaks ties first-scheduled-first-run, so execution order is a
pure function of the schedule — no dict ordering, no wall clock, no
global randomness.  Time is simulated: :attr:`EventScheduler.now` jumps
to each event's timestamp as it is popped, so two runs with the same
seed observe the same timestamps.

Randomness (latency jitter, drop decisions) comes exclusively from the
scheduler's own :class:`random.Random` instance seeded at construction:
two schedulers built with the same seed and fed the same calls replay
byte-identical histories, which is what lets a test assert that a
100-transaction pile-up produces *exactly* the same blocks twice.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from repro.common.errors import SchedulerError

#: Default ceiling on events processed by ``run``/``run_until`` — high
#: enough for thousands of in-flight transactions, low enough to turn an
#: accidental event storm into a crisp error instead of a hang.
DEFAULT_MAX_EVENTS = 1_000_000


class ScheduledEvent:
    """A handle to one scheduled callback; supports cancellation."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the scheduler skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(t={self.time:.3f}, seq={self.seq}{state})"


class EventScheduler:
    """A seedable simulated-time event loop."""

    def __init__(self, seed: int = 0) -> None:
        #: Simulated time: the timestamp of the event running now.
        self.now = 0.0
        self.random = random.Random(seed)
        self.seed = seed
        self.events_processed = 0
        #: Heap of ``(time, priority, seq, event)``: ``seq`` is unique, so
        #: tuple comparison never reaches the event and runs in C.
        self._queue: list[tuple[float, int, int, ScheduledEvent]] = []
        self._seq = 0

    # -- introspection ------------------------------------------------------
    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for *_key, event in self._queue if not event.cancelled)

    # -- scheduling ---------------------------------------------------------
    def call_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule into the past (now={self.now:.3f}, requested={time:.3f})"
            )
        seq = self._seq
        event = ScheduledEvent(time=time, priority=priority, seq=seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def call_later(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, callback, priority=priority)

    # -- execution ----------------------------------------------------------
    def step(self) -> bool:
        """Pop and run the next live event; False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self.now = event.time
            self.events_processed += 1
            event.callback()
            return True
        return False

    def run(self, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run until the queue drains; returns events processed this call."""
        processed = 0
        while self.step():
            processed += 1
            if processed >= max_events:
                raise SchedulerError(
                    f"event budget exhausted after {processed} events — "
                    "likely a self-rescheduling event loop"
                )
        return processed

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = DEFAULT_MAX_EVENTS
    ) -> bool:
        """Run until ``predicate()`` holds; False if the queue drained first."""
        processed = 0
        while not predicate():
            if not self.step():
                return False
            processed += 1
            if processed >= max_events:
                raise SchedulerError(
                    f"condition not reached within {max_events} events"
                )
        return True

    def run_for(self, duration: float, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run events scheduled in the next ``duration`` time units.

        The clock ends up at ``start + duration`` even if the queue drains
        early, mirroring "sleep for N" in a real system.
        """
        deadline = self.now + duration
        processed = 0
        while self._queue:
            head = self._queue[0][3]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > deadline:
                break
            self.step()
            processed += 1
            if processed >= max_events:
                raise SchedulerError(
                    f"event budget exhausted after {processed} events"
                )
        self.now = max(self.now, deadline)
        return processed
