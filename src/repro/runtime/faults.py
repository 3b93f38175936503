"""Pluggable latency and fault models for the message bus.

These are the knobs that turn the deterministic runtime into an
adversarial one: per-link/per-topic latency with seeded jitter makes
gossip-vs-delivery races observable, and the fault injector drops or
delays exactly the messages an attacker (or an unreliable WAN) would.
All randomness is drawn from the scheduler's seeded RNG, so a faulty run
is as reproducible as a clean one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class LatencyModel:
    """Samples a delivery delay for each message.

    ``base`` is the default one-hop latency; ``jitter`` (if non-zero)
    spreads each sample uniformly over ``[base - jitter, base + jitter]``
    using the *scheduler's* RNG, keeping runs seed-reproducible.

    Resolution precedence is **link over topic over base**: a
    ``link_base`` entry for the exact ``(src, dst)`` pair wins outright
    (even when a ``topic_base`` entry also matches), a ``topic_base``
    entry wins over ``base``, and jitter is applied *after* resolution —
    so e.g. ``gossip-batch`` can be made slower than ``deliver-block``
    globally while one specific link stays fast.  Samples are clamped at
    ``0.0``; jitter can never produce a negative delay.
    """

    base: float = 1.0
    jitter: float = 0.0
    link_base: dict = field(default_factory=dict)  # (src, dst) -> latency
    topic_base: dict = field(default_factory=dict)  # topic -> latency

    def sample(self, rng: random.Random, src: str, dst: str, topic: str) -> float:
        base = self.link_base.get((src, dst))
        if base is None:
            base = self.topic_base.get(topic, self.base)
        if self.jitter:
            base += rng.uniform(-self.jitter, self.jitter)
        return max(0.0, base)


@dataclass
class FaultInjector:
    """Message-level fault injection: drops, dead links, dead topics.

    * ``drop_rate`` — iid drop probability per message (seeded RNG);
    * ``topic_drop_rates`` — per-topic iid drop probability; the
      effective rate for a message is ``max(drop_rate, topic rate)``;
    * :meth:`cut_link` / :meth:`restore_link` — take one directed link
      down entirely (a partition is a set of cut links);
    * :meth:`drop_topic` / :meth:`allow_topic` — suppress one message
      class, e.g. every ``gossip-batch``, leaving delivery intact.

    Counters record what was injected so tests can assert the fault
    actually fired rather than silently not triggering; ``dropped_by_topic``
    breaks the total down per message class, which lets an invariant
    checker account for every unresolved transaction (a submit that never
    commits must be explained by a ``submit``-topic drop).
    """

    drop_rate: float = 0.0
    topic_drop_rates: dict = field(default_factory=dict)  # topic -> rate
    dropped: int = 0
    dropped_by_topic: dict = field(default_factory=dict)  # topic -> count
    _dead_links: set = field(default_factory=set)
    _dead_topics: set = field(default_factory=set)

    # -- configuration ------------------------------------------------------
    def cut_link(self, src: str, dst: str) -> None:
        self._dead_links.add((src, dst))

    def restore_link(self, src: str, dst: str) -> None:
        self._dead_links.discard((src, dst))

    def drop_topic(self, topic: str) -> None:
        self._dead_topics.add(topic)

    def allow_topic(self, topic: str) -> None:
        self._dead_topics.discard(topic)

    def drop_topics(self, topics) -> None:
        """Suppress a whole family of message classes at once — e.g.
        every gossip topic (``GOSSIP_TOPICS``)."""
        self._dead_topics.update(topics)

    def heal(self) -> None:
        """Restore every link and topic (random drops keep applying)."""
        self._dead_links.clear()
        self._dead_topics.clear()

    # -- the per-message decision -------------------------------------------
    def should_drop(self, rng: random.Random, src: str, dst: str, topic: str) -> bool:
        if (src, dst) in self._dead_links or topic in self._dead_topics:
            return self._record_drop(topic)
        rate = max(self.drop_rate, self.topic_drop_rates.get(topic, 0.0))
        if rate > 0.0 and rng.random() < rate:
            return self._record_drop(topic)
        return False

    def _record_drop(self, topic: str) -> bool:
        self.dropped += 1
        self.dropped_by_topic[topic] = self.dropped_by_topic.get(topic, 0) + 1
        return True


def no_latency() -> LatencyModel:
    """Zero-latency model: every message delivers at the current instant
    (still in deterministic scheduling order)."""
    return LatencyModel(base=0.0)


def wan_latency(seed_jitter: float = 0.5) -> LatencyModel:
    """A WAN-ish profile: slow inter-node hops with jitter, gossip slower
    than block delivery so dissemination races become visible."""
    return LatencyModel(
        base=5.0,
        jitter=seed_jitter,
        topic_base={"gossip-batch": 8.0, "deliver-block": 5.0, "submit": 3.0},
    )


def lossy_faults(drop_rate: float = 0.05) -> FaultInjector:
    """A lossy network: each message independently dropped with ``drop_rate``."""
    return FaultInjector(drop_rate=drop_rate)
