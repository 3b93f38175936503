"""Digest-driven anti-entropy: the private-data repair engine.

A member peer that missed the gossip push (dissemination capped by
``MaxPeerCount``, or the peer was down) commits the block *without* the
original private data and records the gap.  This engine pulls the
committed private rwset from another member peer, re-verifies it against
the on-chain hashes, and applies it — mirroring Fabric's pvtdata
reconciliation loop.  The repair runs *on the bus*: peers with recorded
gaps exchange compact per-collection digests of committed private data
and pull every repairable gap from one source in a single batched
request.  Four topics ride the message bus, so per-topic drops, latency
and crash windows apply to reconciliation traffic exactly as they do to
dissemination:

* ``gossip-digest-request`` — requester → source: the (namespace,
  collection) scopes the requester has gaps in;
* ``gossip-digest`` — source → requester: for each scope, the sorted
  tx ids the source holds an archived private rwset for;
* ``gossip-pull-request`` — requester → source: one batched list of
  every (tx, namespace, collection) gap the digest can repair;
* ``gossip-pull-response`` — source → requester: the plaintext rwsets,
  applied under the hash/staleness/BTL rules of
  :func:`apply_pulled_rwset`.

Scheduling is cooperative with the drain-to-idle runtime: the tick timer
re-arms only while some requester still initiates work, and a
per-(requester, source) attempt budget backs off sources that yield no
fills (a fruitless source may be partitioned, or simply not hold the
data).  Attempts reset when a pull fills gaps or when new gaps appear,
so the loop always terminates once the system quiesces — finite gaps and
finite sources bound the total number of fruitless requests.  Source
choice rotates deterministically from the run seed and round number, so
repair load spreads instead of hammering the first member peer.
:meth:`AntiEntropyEngine.sweep` is the on-demand form of the same loop
(``FabricNetwork.reconcile_private_data``): it runs rounds to a fixpoint
whether or not the periodic timer is on.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.common.hashing import hash_key
from repro.gossip.dissemination import payload_bytes
from repro.ledger.version import Version

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaincode.rwset import PrivateCollectionWrites
    from repro.ledger.ledger import MissingPrivateData
    from repro.peer.node import PeerNode
    from repro.runtime.runtime import TransactionRuntime

TOPIC_AE_DIGEST_REQUEST = "gossip-digest-request"
TOPIC_AE_DIGEST = "gossip-digest"
TOPIC_AE_PULL_REQUEST = "gossip-pull-request"
TOPIC_AE_PULL_RESPONSE = "gossip-pull-response"

#: Every anti-entropy topic, for fault plans and handler dispatch.
ANTI_ENTROPY_TOPICS = (
    TOPIC_AE_DIGEST_REQUEST,
    TOPIC_AE_DIGEST,
    TOPIC_AE_PULL_REQUEST,
    TOPIC_AE_PULL_RESPONSE,
)


def _digest_bytes(digest: tuple) -> int:
    """Approximate wire size of a digest payload (scope names + tx ids)."""
    total = 0
    for (namespace, collection), tx_ids in digest:
        total += len(namespace) + len(collection)
        total += sum(len(tx_id) for tx_id in tx_ids)
    return total


#: Per-response memo of ``tx_id -> (hashed namespace rwset, (block, tx))``
#: — or ``None`` when the tx cannot be located at the repairing peer.
LocateMemo = dict


def _locate_tx(peer: "PeerNode", tx_id: str, memo: LocateMemo):
    """Find ``tx_id``'s rwset + position at ``peer``, memoized per response.

    Works after pruning too: ``find_transaction``/``locate_transaction``
    fall back to the peer's archived-history index once the block itself
    is gone.
    """
    if tx_id in memo:
        return memo[tx_id]
    located = peer.ledger.blockchain.find_transaction(tx_id)
    entry = None
    if located is not None:
        tx, _flag = located
        location = peer.ledger.blockchain.locate_transaction(tx_id)
        if location is not None:
            entry = (tx.payload.results, location)
    memo[tx_id] = entry
    return entry


def apply_pulled_rwset(
    peer: "PeerNode",
    missing: "MissingPrivateData",
    plaintext: "PrivateCollectionWrites",
    memo: LocateMemo,
) -> bool:
    """Verify and apply one pulled private rwset at ``peer``.

    Never trusts the pulled data: it must match the on-chain hashes of
    the recorded tx.  Each write then passes the staleness rule (the
    committed *hash* store must still point at this tx's version — a
    later tx overwriting or deleting the key wins), and a collection
    whose BlockToLive already expired by apply time is resolved
    *without* writing plaintext — repairing a gap must never resurrect
    data every member has purged.

    Returns True when the gap was dealt with (the missing record is
    resolved), False when this plaintext cannot repair it.
    """
    entry = _locate_tx(peer, missing.tx_id, memo)
    if entry is None:
        return False
    results, (block_num, tx_num) = entry
    ns_set = results.namespace(missing.namespace)
    if ns_set is None:
        return False
    hashed_col = ns_set.collection(missing.collection)
    if hashed_col is None:
        return False
    if not plaintext.matches_hashes(hashed_col):
        return False

    config = peer.channel.collection(missing.namespace, missing.collection)
    btl = config.block_to_live
    expired = bool(btl) and peer.ledger.height >= block_num + btl + 1
    version = Version(block_num, tx_num)
    if not expired:
        for write in plaintext.writes:
            # Staleness check (as in Fabric's reconciler): only apply a
            # pulled write while the committed *hash* store still points
            # at this transaction's version.  A later transaction may
            # have overwritten or deleted the key since the gap was
            # recorded — applying the old write then would resurrect
            # deleted data or roll the plaintext back behind the hashes.
            current = peer.ledger.private_hashes.get_version(
                missing.namespace, missing.collection, hash_key(write.key)
            )
            if write.is_delete:
                if current is None:
                    peer.ledger.private_data.delete(
                        missing.namespace, missing.collection, write.key
                    )
            elif current == version:
                peer.ledger.private_data.put(
                    missing.namespace, missing.collection, write.key,
                    write.value or b"", version,
                )
                peer.ledger.note_private_commit(
                    missing.namespace,
                    missing.collection,
                    write.key,
                    block_num,
                    btl=btl,
                )
        peer.ledger.committed_private_rwsets[
            (missing.tx_id, missing.namespace, missing.collection)
        ] = plaintext
    peer.ledger.resolve_missing(missing.tx_id, missing.namespace, missing.collection)
    return True


class AntiEntropyEngine:
    """Periodic digest exchange + batched multi-gap pulls over the bus."""

    def __init__(
        self,
        runtime: "TransactionRuntime",
        every: float,
        max_source_attempts: int = 3,
    ) -> None:
        self.runtime = runtime
        self.gossip = runtime.network.gossip
        self.every = every
        self.max_source_attempts = max_source_attempts
        self.rounds = 0  # initiation rounds (timer ticks and sweep rounds)
        self.pull_requests = 0  # batched multi-gap pulls sent
        self._armed = False
        #: Fruitless digest requests per (requester, source) — the backoff
        #: state.  Reset by fills and by new gaps at the requester.
        self._attempts: dict[tuple[str, str], int] = {}
        self._last_gaps: dict[str, int] = {}

    # -- scheduling ----------------------------------------------------------
    def arm(self) -> None:
        """Schedule the next tick unless one is already pending.

        Called at startup, after every block commit (new gaps may have
        been recorded), and by the tick itself while it keeps initiating
        work — the timer deliberately dies when a tick finds nothing to
        do, so the drain-to-idle scheduler never sees a perpetual loop.
        """
        if self._armed or self.every <= 0:
            return
        self._armed = True
        self.runtime.scheduler.call_later(self.every, self._tick)

    def reset_backoff(self) -> None:
        """Forget the per-(requester, source) backoff state.

        The operator hook for "the partition healed, probe everyone
        again": sources backed off during a fault window get a fresh
        attempt budget without waiting for new gaps to appear.
        """
        self._attempts.clear()
        self._last_gaps.clear()

    def sweep(self) -> int:
        """Repair every gap the live peers can repair; returns the fills.

        Each pass forgets the backoff state and runs initiation rounds,
        running the runtime to idle after each (so anything else pending
        runs too), while some requester still sends a digest request;
        passes repeat until one fills nothing.  Crashed peers neither
        request nor serve, and a dropped topic just makes every source
        back off, so the sweep ends either way.
        """
        start = self.gossip.reconcile_pulls
        while True:
            before = self.gossip.reconcile_pulls
            self.reset_backoff()
            while self._round():
                self.runtime.run()
            if self.gossip.reconcile_pulls == before:
                return before - start

    def _tick(self) -> None:
        self._armed = False
        if self._round():
            self.arm()

    def _round(self) -> bool:
        """One digest request per live peer with gaps; True if any went out."""
        self.rounds += 1
        initiated = False
        for peer in self.runtime.network.peers():
            if not peer.crashed and self._initiate(peer):
                initiated = True
        return initiated

    def _initiate(self, peer: "PeerNode") -> bool:
        """Send one digest request for ``peer`` if it has repairable gaps."""
        gaps = peer.ledger.missing_by_collection()
        if not gaps:
            self._last_gaps.pop(peer.name, None)
            return False
        gap_count = sum(len(by_tx) for by_tx in gaps.values())
        if gap_count > self._last_gaps.get(peer.name, 0):
            # New gaps since the last look: give backed-off sources
            # another chance — they may hold the new data.
            for key in [k for k in self._attempts if k[0] == peer.name]:
                del self._attempts[key]
        self._last_gaps[peer.name] = gap_count

        scopes = tuple(sorted(gaps.keys()))
        candidates: list["PeerNode"] = []
        seen: set[str] = set()
        for namespace, collection in scopes:
            for source in self.gossip.member_peers(namespace, collection):
                if source is peer or source.crashed or source.name in seen:
                    continue
                seen.add(source.name)
                candidates.append(source)
        if not candidates:
            return False
        token = f"{self.gossip.rotation_seed}:{self.rounds}:{peer.name}"
        offset = zlib.crc32(token.encode("utf-8")) % len(candidates)
        rotated = candidates[offset:] + candidates[:offset]
        source = next(
            (
                s
                for s in rotated
                if self._attempts.get((peer.name, s.name), 0)
                < self.max_source_attempts
            ),
            None,
        )
        if source is None:
            return False  # every source backed off until new gaps or a sweep
        key = (peer.name, source.name)
        self._attempts[key] = self._attempts.get(key, 0) + 1
        # Name only the scopes the source may hold: it was drawn from the
        # union of members over every gap scope.
        held = peer.channel.member_collections(source.msp_id)
        self.runtime.bus.send(
            peer.name, source.name, TOPIC_AE_DIGEST_REQUEST,
            (peer.name, tuple(scope for scope in scopes if scope in held)),
        )
        return True

    # -- message handlers (dispatched by the runtime's peer handler) ---------
    def on_message(self, peer: "PeerNode", message) -> None:
        if message.topic == TOPIC_AE_DIGEST_REQUEST:
            self._on_digest_request(peer, message.payload)
        elif message.topic == TOPIC_AE_DIGEST:
            self._on_digest(peer, message.payload)
        elif message.topic == TOPIC_AE_PULL_REQUEST:
            self._on_pull_request(peer, message.payload)
        else:
            self._on_pull_response(peer, message.payload)

    def _on_digest_request(self, source: "PeerNode", payload) -> None:
        requester_name, scopes = payload
        digest = tuple(
            (
                (namespace, collection),
                tuple(
                    sorted(
                        source.ledger.committed_private_rwsets.tx_ids_for(
                            namespace, collection
                        )
                    )
                ),
            )
            for namespace, collection in scopes
        )
        size = _digest_bytes(digest)
        self.gossip.bytes_sent += size
        self.runtime.bus.send(
            source.name, requester_name, TOPIC_AE_DIGEST, (source.name, digest)
        )

    def _on_digest(self, peer: "PeerNode", payload) -> None:
        source_name, digest = payload
        self.gossip.digest_rounds += 1
        gaps = peer.ledger.missing_by_collection()
        wanted = []
        for (namespace, collection), tx_ids in digest:
            held = set(tx_ids)
            for tx_id in gaps.get((namespace, collection), {}):
                if tx_id in held:
                    wanted.append((tx_id, namespace, collection))
        if not wanted:
            return  # fruitless — the attempt stays counted against the source
        self.pull_requests += 1
        self.runtime.bus.send(
            peer.name, source_name, TOPIC_AE_PULL_REQUEST,
            (peer.name, tuple(wanted)),
        )

    def _on_pull_request(self, source: "PeerNode", payload) -> None:
        requester_name, requests = payload
        responses = source.serve_private_batch(requests)
        size = sum(payload_bytes(writes) for _, _, _, writes in responses)
        self.gossip.bytes_sent += size
        self.runtime.bus.send(
            source.name, requester_name, TOPIC_AE_PULL_RESPONSE,
            (source.name, tuple(responses)),
        )

    def _on_pull_response(self, peer: "PeerNode", payload) -> None:
        source_name, responses = payload
        memo: LocateMemo = {}
        filled = 0
        for tx_id, namespace, collection, plaintext in responses:
            missing = peer.ledger.get_missing(tx_id, namespace, collection)
            if missing is None:
                continue  # already repaired by a racing push or pull
            if apply_pulled_rwset(peer, missing, plaintext, memo):
                filled += 1
                self.gossip.reconcile_pulls += 1
        if filled:
            self._attempts[(peer.name, source_name)] = 0
            self.arm()  # remaining gaps may repair from other sources
