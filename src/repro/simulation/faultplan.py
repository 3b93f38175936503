"""Seeded fault-schedule generation over simulated time.

A fault schedule is a list of :class:`FaultAction` records — again pure
data — applied to the runtime's :class:`FaultInjector`/:class:`LatencyModel`
at scheduled instants.  The generator pairs every window (every cut has
a heal, every burst an end), so by the end of the schedule the network
is whole again.  That is its choice, not the harness's requirement: a
consenter left down or cut off still lets the run drain, and the
harness heals the bus before it drives the system to quiescence with
``catch_up()`` + reconciliation.

Window shapes:

* **delivery partition** — cut a subset of ``orderer → peer`` links
  (peers fall behind and later catch up out of order);
* **gossip blackout** — drop the whole gossip topic family
  (dissemination payloads, anti-entropy digests and pulls) so members
  record missing private data; anti-entropy must repair it;
* **gossip link cuts** — cut individual ``peer → peer`` links;
* **submit loss** — a per-topic drop rate on ``submit`` (envelopes are
  lost before ordering; their futures never resolve, and the liveness
  invariant accounts for each one);
* **lossy burst** — a global iid drop rate;
* **jitter burst** — crank the latency jitter (reordering pressure);
* **batch stress** — drop block delivery entirely for a while so the
  orderer keeps cutting while every peer lags (timeout-path stress);
* **crash/restart** — kill peer processes outright for the window: their
  storage handles close abruptly, in-flight messages to them drop, and on
  restart each recovers from its storage engine (WAL replay under the
  ``wal`` backend) and rejoins via the deliver cursor.  The durability
  invariant checks the recovered state at the restart instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.runtime import GOSSIP_TOPICS, TOPIC_DELIVER, TOPIC_SUBMIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import TransactionRuntime
    from repro.simulation.config import SimulationConfig


@dataclass(frozen=True)
class FaultAction:
    """One scheduled mutation of the fault/latency models."""

    at: float
    # cut_link | restore_link | drop_topic | allow_topic | topic_rate | drop_rate
    # | jitter | crash_peer | restart_peer | crash_orderer | restart_orderer
    # | partition_orderer | heal_orderer
    kind: str
    src: str = ""
    dst: str = ""
    topic: str = ""
    rate: float = 0.0

    def apply(self, runtime: "TransactionRuntime") -> None:
        faults = runtime.bus.faults
        if self.kind == "cut_link":
            faults.cut_link(self.src, self.dst)
        elif self.kind == "restore_link":
            faults.restore_link(self.src, self.dst)
        elif self.kind == "drop_topic":
            faults.drop_topic(self.topic)
        elif self.kind == "allow_topic":
            faults.allow_topic(self.topic)
        elif self.kind == "topic_rate":
            if self.rate > 0.0:
                faults.topic_drop_rates[self.topic] = self.rate
            else:
                faults.topic_drop_rates.pop(self.topic, None)
        elif self.kind == "drop_rate":
            faults.drop_rate = self.rate
        elif self.kind == "jitter":
            runtime.bus.latency.jitter = self.rate
        elif self.kind == "crash_peer":
            runtime.crash_peer(self.dst)
        elif self.kind == "restart_peer":
            runtime.restart_peer(self.dst)
        elif self.kind in _ORDERER_KINDS:
            raft = runtime.network.orderer.raft
            node_id = raft.node_id_of(self.dst)
            if self.kind == "crash_orderer":
                raft.stop(node_id)
            elif self.kind == "restart_orderer":
                raft.restart(node_id)
            elif self.kind == "partition_orderer":
                raft.partition({node_id})
            else:
                raft.heal_partition()
        else:  # pragma: no cover - guarded by generation
            raise ValueError(f"unknown fault action kind {self.kind!r}")

    def to_wire(self) -> dict:
        return {
            "at": self.at, "kind": self.kind, "src": self.src,
            "dst": self.dst, "topic": self.topic, "rate": self.rate,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "FaultAction":
        return cls(
            at=data["at"], kind=data["kind"], src=data.get("src", ""),
            dst=data.get("dst", ""), topic=data.get("topic", ""),
            rate=data.get("rate", 0.0),
        )


#: Two windows, each a fault kind and the kind that ends it.
_ORDERER_KINDS = ("crash_orderer", "restart_orderer", "partition_orderer", "heal_orderer")


def generate_fault_schedule(
    config: "SimulationConfig", peer_names: list, consenters: list, horizon: float
) -> list:
    """Expand the config's fault budget into matched fault windows;
    ``consenters`` are the orderer's consenter endpoints."""
    rng = random.Random(f"faults-{config.seed}")
    actions: list[FaultAction] = []
    shapes = [
        "delivery_partition", "gossip_blackout", "gossip_links",
        "submit_loss", "lossy_burst", "jitter_burst", "batch_stress",
        "crash_restart",
    ]
    for _ in range(config.fault_windows):
        start = round(rng.uniform(0.0, horizon * 0.8), 6)
        duration = round(rng.uniform(horizon * 0.05, horizon * 0.35), 6)
        end = round(start + duration, 6)
        shape = rng.choice(shapes)

        if shape == "delivery_partition":
            count = rng.randint(1, max(1, len(peer_names) // 2))
            for name in rng.sample(sorted(peer_names), count):
                actions.append(FaultAction(at=start, kind="cut_link",
                                           src="orderer", dst=name))
                actions.append(FaultAction(at=end, kind="restore_link",
                                           src="orderer", dst=name))
        elif shape == "gossip_blackout":
            # A blackout must silence the whole gossip plane — dropping
            # only dissemination would let the AE loop repair gaps
            # mid-blackout — so every gossip-family topic goes dark for
            # the window.
            for topic in GOSSIP_TOPICS:
                actions.append(FaultAction(at=start, kind="drop_topic", topic=topic))
                actions.append(FaultAction(at=end, kind="allow_topic", topic=topic))
        elif shape == "gossip_links":
            pairs = [(a, b) for a in peer_names for b in peer_names if a != b]
            count = min(len(pairs), rng.randint(1, 4))
            for src, dst in rng.sample(sorted(pairs), count):
                actions.append(FaultAction(at=start, kind="cut_link", src=src, dst=dst))
                actions.append(FaultAction(at=end, kind="restore_link", src=src, dst=dst))
        elif shape == "submit_loss":
            rate = round(rng.uniform(0.1, 0.5), 3)
            actions.append(FaultAction(at=start, kind="topic_rate",
                                       topic=TOPIC_SUBMIT, rate=rate))
            actions.append(FaultAction(at=end, kind="topic_rate",
                                       topic=TOPIC_SUBMIT, rate=0.0))
        elif shape == "lossy_burst":
            rate = round(rng.uniform(0.02, 0.15), 3)
            actions.append(FaultAction(at=start, kind="drop_rate", rate=rate))
            actions.append(FaultAction(at=end, kind="drop_rate", rate=0.0))
        elif shape == "jitter_burst":
            boost = round(config.jitter + rng.uniform(0.5, 3.0), 3)
            actions.append(FaultAction(at=start, kind="jitter", rate=boost))
            actions.append(FaultAction(at=end, kind="jitter", rate=config.jitter))
        elif shape == "batch_stress":
            actions.append(FaultAction(at=start, kind="drop_topic", topic=TOPIC_DELIVER))
            actions.append(FaultAction(at=end, kind="allow_topic", topic=TOPIC_DELIVER))
        elif shape == "crash_restart":
            count = rng.randint(1, max(1, len(peer_names) // 3))
            for name in rng.sample(sorted(peer_names), count):
                actions.append(FaultAction(at=start, kind="crash_peer", dst=name))
                actions.append(FaultAction(at=end, kind="restart_peer", dst=name))

    if config.fault_windows:
        orderer_rng = random.Random(f"orderer-faults-{config.seed}")
        actions.extend(_orderer_window(orderer_rng, consenters, horizon))
    actions.sort(key=lambda a: (a.at, a.kind, a.src, a.dst, a.topic))
    return actions


def _orderer_window(rng: random.Random, consenters: list, horizon: float) -> list:
    """One orderer fault window: a consenter crash or its isolation."""
    start = round(rng.uniform(0.0, horizon * 0.8), 6)
    end = round(start + rng.uniform(horizon * 0.05, horizon * 0.35), 6)
    victim = consenters[rng.randrange(len(consenters))]
    kinds = _ORDERER_KINDS[:2] if rng.random() < 0.5 else _ORDERER_KINDS[2:]
    return [
        FaultAction(at=start, kind=kinds[0], dst=victim),
        FaultAction(at=end, kind=kinds[1], dst=victim),
    ]
