"""Private data dissemination over the peer-to-peer gossip layer.

After simulating a PDC write, the endorsing peer pushes the plaintext
private rwset to collection member peers (Section III-A2, step 7-9 of
Fig. 2) so they can commit the original data when the transaction later
arrives in a block.  The collection config governs fan-out:

* ``RequiredPeerCount`` — dissemination *fails the endorsement* if the
  plaintext cannot reach at least this many other member peers (data
  durability guarantee);
* ``MaxPeerCount`` — push to at most this many member peers; the rest
  rely on reconciliation.

Note the endorser itself need not be a collection member — a non-member
endorser of a write-only transaction holds the plaintext write set it
produced and disseminates it to the members, which is what makes the
paper's fake-write injection commit at victim members.  It keeps none of
it once the block commits.

One endorsement's private rwsets travel as one payload per target peer,
covering every collection that target is a member of (§15 of the
architecture notes).  ``FabricNetwork(anti_entropy_every=N)`` sets the
cadence (simulated seconds) of the digest-driven anti-entropy loop (see
``gossip.anti_entropy``); ``0`` turns the periodic timer off, and gaps
repair only when ``FabricNetwork.reconcile_private_data`` sweeps.

The push set is *rotated* deterministically from the run seed:
``eligible[:max_peer_count]`` would always starve the same tail peers,
which then pay every reconciliation round.

Every push is a message on the event runtime's bus, so whether the
plaintext beats the block to a member peer is a race the latency model
decides.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.chaincode.rwset import PrivateCollectionWrites
from repro.common.errors import GossipError

if TYPE_CHECKING:  # pragma: no cover
    from repro.identity.identity import Certificate
    from repro.ledger.snapshot import SnapshotManifest, SnapshotPackage
    from repro.network.channel import ChannelConfig
    from repro.peer.node import PeerNode

#: Bus topics of the two pushes; the runtime's peer handler dispatches on
#: them.
TOPIC_GOSSIP_BATCH = "gossip-batch"
TOPIC_SNAPSHOT_SIG = "snapshot-sig"


def payload_bytes(writes: PrivateCollectionWrites) -> int:
    """Wire size of one collection rwset (the archive framing)."""
    return len(writes.to_bytes())


class GossipNetwork:
    """The channel-wide gossip membership view.

    ``send(source, target, topic, payload)`` puts one message on the bus
    (:meth:`~repro.runtime.bus.MessageBus.send` over peer names).
    """

    def __init__(
        self, channel: "ChannelConfig", send: Callable[[str, str, str, Any], object]
    ) -> None:
        self._channel = channel
        self._send = send
        self._peers: list["PeerNode"] = []
        #: Seed for deterministic push-set rotation and anti-entropy source
        #: selection; ``attach_runtime`` overwrites it with the run seed.
        self.rotation_seed = 0
        self.pushes = 0  # (collection rwset, target) records pushed
        self.batched_payloads = 0  # wire messages: one per (endorsement, target)
        self.digest_rounds = 0  # anti-entropy digest exchanges completed
        self.reconcile_pulls = 0  # gaps filled by anti-entropy pulls
        self.bytes_sent = 0  # private-rwset + digest wire bytes
        self._member_memo: dict[tuple[str, str], tuple["PeerNode", ...]] = {}

    def register_peer(self, peer: "PeerNode") -> None:
        self._peers.append(peer)
        self._member_memo.clear()

    def unregister_peer(self, peer: "PeerNode") -> None:
        self._peers.remove(peer)
        self._member_memo.clear()

    def peers(self) -> list["PeerNode"]:
        return list(self._peers)

    def member_peers(self, namespace: str, collection: str) -> list["PeerNode"]:
        memo = self._member_memo.get((namespace, collection))
        if memo is None:
            config = self._channel.collection(namespace, collection)
            members = config.member_orgs()
            memo = tuple(p for p in self._peers if p.msp_id in members)
            self._member_memo[(namespace, collection)] = memo
        return list(memo)

    def _rotate(
        self, eligible: list["PeerNode"], tx_id: str, namespace: str, collection: str
    ) -> list["PeerNode"]:
        """Rotate the eligible list by a seed/tx-derived offset.

        Keeps the push *set* a deterministic function of (seed, tx,
        collection), so a seed replays to the same targets, while
        spreading the MaxPeerCount cap across members over time instead
        of always starving the same tail.
        """
        if len(eligible) <= 1:
            return eligible
        token = f"{self.rotation_seed}:{tx_id}:{namespace}:{collection}"
        offset = zlib.crc32(token.encode("utf-8")) % len(eligible)
        return eligible[offset:] + eligible[:offset]

    def _push_targets(
        self, endorsing_peer: "PeerNode", tx_id: str, writes: PrivateCollectionWrites
    ) -> list["PeerNode"]:
        """Eligible push targets for one collection rwset, rotated+capped."""
        config = self._channel.collection(writes.namespace, writes.collection)
        eligible = [
            p
            for p in self.member_peers(writes.namespace, writes.collection)
            if p is not endorsing_peer
        ]
        if len(eligible) < config.required_peer_count:
            raise GossipError(
                f"collection {writes.collection!r} requires dissemination to "
                f"{config.required_peer_count} peers but only {len(eligible)} "
                f"member peers are reachable"
            )
        rotated = self._rotate(eligible, tx_id, writes.namespace, writes.collection)
        return rotated[: config.max_peer_count]

    def disseminate(
        self,
        endorsing_peer: "PeerNode",
        tx_id: str,
        private_writes: tuple[PrivateCollectionWrites, ...],
    ) -> int:
        """Push plaintext private writes to collection members.

        One payload per target, covering every collection rwset that
        target receives: the per-destination queues fill while iterating
        the endorsement's collection rwsets (RequiredPeerCount is enforced
        per collection) and flush at the end.  Queue order is
        deterministic: dict insertion order follows the (collection,
        rotated member) iteration.

        Returns the number of (collection rwset, target) records pushed (a
        payload carrying N rwsets counts as N pushes but one wire
        message); raises :class:`GossipError` when ``RequiredPeerCount``
        cannot be met.
        """
        pushed = 0
        queues: dict["PeerNode", list[PrivateCollectionWrites]] = {}
        for writes in private_writes:
            for target in self._push_targets(endorsing_peer, tx_id, writes):
                queues.setdefault(target, []).append(writes)
                pushed += 1
                self.pushes += 1
        for target, records in queues.items():
            batch = tuple(records)
            size = sum(payload_bytes(writes) for writes in batch)
            self._send(endorsing_peer.name, target.name, TOPIC_GOSSIP_BATCH, (tx_id, batch))
            self.batched_payloads += 1
            self.bytes_sent += size
        return pushed

    # -- snapshot checkpointing --------------------------------------------
    def broadcast_snapshot_sig(
        self,
        source: "PeerNode",
        manifest: "SnapshotManifest",
        certificate: "Certificate",
        signature: bytes,
    ) -> int:
        """Push one peer's manifest signature to every other peer."""
        sent = 0
        for target in self._peers:
            if target is source:
                continue
            self._send(
                source.name, target.name, TOPIC_SNAPSHOT_SIG,
                (manifest, certificate, signature),
            )
            sent += 1
        return sent

    def snapshot_offers(
        self, requester: "PeerNode", min_height: int = 0
    ) -> list[tuple["PeerNode", int]]:
        """Live peers' latest sealed snapshot heights at or past ``min_height``."""
        offers = []
        for peer in self._peers:
            if peer is requester or peer.crashed:
                continue
            height = peer.sealed_snapshot_height()
            if height is not None and height >= min_height:
                offers.append((peer, height))
        return offers

    def fetch_snapshot(
        self, requester: "PeerNode", min_height: int = 0
    ) -> Optional["SnapshotPackage"]:
        """Fetch the best available snapshot package for ``requester``.

        Among live offers at or past ``min_height``, prefers servers that
        share the most collection memberships with the requester (only a
        member holds, and so ships, a collection's plaintext), then the
        highest offered height, then the peer name — a deterministic
        choice.  ``None`` when no live peer holds a sealed snapshot at
        ``min_height`` or above.
        """
        offers = self.snapshot_offers(requester, min_height)
        if not offers:
            return None
        wanted = self._channel.member_collections(requester.msp_id)
        server, _ = max(
            offers,
            key=lambda offer: (
                len(wanted & self._channel.member_collections(offer[0].msp_id)),
                offer[1],
                offer[0].name,
            ),
        )
        return server.serve_snapshot(requester.msp_id)
