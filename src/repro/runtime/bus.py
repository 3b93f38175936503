"""The message bus: named endpoints, per-link queues, scheduled delivery.

Every component of the event-driven pipeline (the orderer, each peer)
registers an :class:`Endpoint` — an inbox plus a handler.  Senders call
:meth:`MessageBus.send`; the bus consults the latency model and fault
injector, then schedules the delivery as an event.  Delivery appends the
message to the destination inbox and drains it, so a handler observes
messages one at a time in arrival order.

Two ordering guarantees matter for fidelity:

* **per-link FIFO**: messages on the same ``(src, dst)``
  link never overtake each other, even under jitter — matching TCP
  streams between Fabric nodes.  Messages on *different* links race
  freely, which is exactly the race the gossip experiments observe.
* **global determinism**: same seed, same sends → same delivery order,
  because delivery times come from the seeded RNG and ties break by
  send sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import ConfigError
from repro.runtime.faults import FaultInjector, LatencyModel
from repro.runtime.scheduler import EventScheduler


@dataclass(frozen=True)
class Message:
    """One message in flight on the bus."""

    src: str
    dst: str
    topic: str
    payload: Any
    seq: int  # bus-wide send sequence number
    sent_at: float
    deliver_at: float


MessageHandler = Callable[[Message], None]

#: Scheduler priority of a :meth:`MessageBus.send_local` delivery: ahead of
#: every other event at its instant, fault-plan actions (-1) included.
PRIORITY_LOCAL = -2


class Endpoint:
    """A named inbox with a handler, owned by one component."""

    def __init__(self, name: str, handler: MessageHandler) -> None:
        self.name = name
        self.handler = handler
        self.inbox: deque = deque()
        self._draining = False

    def enqueue(self, message: Message) -> None:
        self.inbox.append(message)
        self.drain()

    def drain(self) -> None:
        # A handler may itself trigger sends that deliver at the same
        # instant; re-entrant drains would reorder the inbox.
        if self._draining:
            return
        self._draining = True
        try:
            while self.inbox:
                message = self.inbox.popleft()
                self.handler(message)
        finally:
            self._draining = False


class MessageBus:
    """Scheduled message delivery between named endpoints."""

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.scheduler = scheduler
        self.latency = latency or LatencyModel()
        self.faults = faults
        self.messages_sent = 0
        self.messages_dropped = 0
        self.topic_counts: dict[str, int] = {}
        self._endpoints: dict[str, Endpoint] = {}
        self._link_clock: dict[tuple[str, str], float] = {}
        self._seq = 0

    # -- topology ------------------------------------------------------------
    def register(self, name: str, handler: MessageHandler) -> Endpoint:
        if name in self._endpoints:
            raise ConfigError(f"bus endpoint {name!r} already registered")
        endpoint = Endpoint(name, handler)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise ConfigError(f"no bus endpoint named {name!r}") from None

    # -- sending -------------------------------------------------------------
    def send(self, src: str, dst: str, topic: str, payload: Any) -> Optional[Message]:
        """Schedule one message; returns None if a fault dropped it.

        ``src`` is free-form (clients need no endpoint); ``dst`` must be
        a registered endpoint.
        """
        endpoint = self.endpoint(dst)
        now = self.scheduler.now
        if self.faults is not None and self.faults.should_drop(
            self.scheduler.random, src, dst, topic
        ):
            self.messages_dropped += 1
            return None
        delay = self.latency.sample(self.scheduler.random, src, dst, topic)
        link = (src, dst)
        deliver_at = max(now + delay, self._link_clock.get(link, 0.0))
        self._link_clock[link] = deliver_at
        return self._post(endpoint, src, topic, payload, deliver_at, priority=0)

    def send_local(self, src: str, dst: str, topic: str, payload: Any) -> Optional[Message]:
        """A hop between processes on one host: zero latency, no RNG draw.

        Neither the latency model nor the iid drop rates apply; only a cut
        link or a dropped topic loses the message.  Its delivery runs
        ahead of every other event at this instant
        (:data:`PRIORITY_LOCAL`).  Such links carry only local hops, so
        per-link FIFO is the send order.
        """
        endpoint = self.endpoint(dst)
        if self.faults is not None and self.faults.blocks(src, dst, topic):
            self.messages_dropped += 1
            return None
        return self._post(endpoint, src, topic, payload, self.scheduler.now, PRIORITY_LOCAL)

    def _post(
        self, endpoint: Endpoint, src: str, topic: str, payload: Any,
        deliver_at: float, priority: int,
    ) -> Message:
        message = Message(
            src=src,
            dst=endpoint.name,
            topic=topic,
            payload=payload,
            seq=self._seq,
            sent_at=self.scheduler.now,
            deliver_at=deliver_at,
        )
        self._seq += 1
        self.messages_sent += 1
        self.topic_counts[topic] = self.topic_counts.get(topic, 0) + 1
        self.scheduler.call_at(
            deliver_at, lambda: endpoint.enqueue(message), priority=priority
        )
        return message
