"""The event-driven transaction runtime: the one engine every network runs on.

Fig. 2 is a set of messages — client → endorsers → orderer → peers, with
gossip between peers — and :class:`TransactionRuntime` carries each of
them on the message bus:

* **endorse** — with an endorsement plan, proposals go out as
  ``endorse-proposal`` messages and an
  :class:`~repro.runtime.endorse.EndorsementCollector` gathers the
  replies; with a pinned endorser set and no plan,
  :meth:`Gateway.submit_async` asks each endorser in turn (a synchronous
  request/response round, as in Fabric's SDK);
* **submit** — the assembled envelope is posted on the ``client →
  orderer`` link and the caller holds a :class:`PendingTransaction`
  future;
* **order** — the orderer consumes envelopes from its inbox, cutting
  blocks by batch *size* immediately and by batch *timeout* via a
  scheduler timer armed when the first envelope of a batch arrives;
* **deliver** — each cut block is replicated through Raft and then sent
  to every peer's inbox on its own ``orderer → peer`` link; a peer
  validates + commits when the message arrives, and once every peer has
  committed a block the runtime resolves the futures of its
  transactions;
* **gossip** — private-data dissemination and snapshot signatures ride
  the bus as ``gossip-batch`` / ``snapshot-sig`` messages, so whether
  plaintext beats the block to a member peer is a genuine race governed
  by the latency model.

Hundreds of transactions can be in flight at once; MVCC conflicts, block
packing, and gossip/delivery races all emerge from the schedule.  With a
fixed seed the schedule — and therefore every block and every validation
flag — is exactly reproducible.

Every :class:`~repro.network.network.FabricNetwork` has one:
``network.attach_runtime(...)`` configures it before any traffic, and a
network that never calls it gets one with the defaults on first use.
The synchronous API is a wrapper over it: ``submit_transaction`` and
``submit_envelope`` submit, then
:meth:`TransactionRuntime.run_until_committed`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.client.gateway import SubmitResult
from repro.common.errors import (
    ConfigError,
    EndorsementError,
    MempoolFullError,
    PrunedBacklogError,
    SchedulerError,
)
from repro.gossip.anti_entropy import ANTI_ENTROPY_TOPICS, AntiEntropyEngine
from repro.gossip.dissemination import TOPIC_GOSSIP_BATCH, TOPIC_SNAPSHOT_SIG
from repro.ledger.block import Block
from repro.ledger.snapshot import bootstrap_from_package
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.runtime.bus import Message, MessageBus
from repro.runtime.executor import ValidationCostModel
from repro.runtime.faults import FaultInjector, LatencyModel
from repro.runtime.scheduler import DEFAULT_MAX_EVENTS, EventScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import FabricNetwork
    from repro.peer.node import PeerNode
    from repro.runtime.endorse import EndorsementCollector

#: Simulated time the orderer waits before cutting an under-filled batch.
DEFAULT_BATCH_TIMEOUT = 10.0

TOPIC_SUBMIT = "submit"
TOPIC_DELIVER = "deliver-block"
TOPIC_ENDORSE = "endorse-proposal"
TOPIC_ENDORSE_RESULT = "endorse-result"

#: Every topic carrying private-data gossip traffic (dissemination plus
#: the anti-entropy exchange) — what a "gossip blackout" fault window or
#: a gossip latency override should cover.
GOSSIP_TOPICS = (TOPIC_GOSSIP_BATCH,) + ANTI_ENTROPY_TOPICS

ORDERER_ENDPOINT = "orderer"
CLIENT_SOURCE = "client"
GATEWAY_ENDPOINT = "gateway"


class PendingTransaction:
    """A future resolved when every peer has committed the transaction.

    With the endorsement fan-out path the future is created *before* an
    envelope exists (endorsement itself happens on the bus); the envelope
    is attached when the plan's quorum completes, and an endorsement that
    cannot complete fails the future with a typed error instead.
    """

    def __init__(
        self,
        envelope: Optional[TransactionEnvelope],
        client_payload: bytes = b"",
        tx_id: Optional[str] = None,
    ) -> None:
        self.envelope = envelope
        self.client_payload = client_payload
        self.submitted_at: float = 0.0
        self.committed_at: Optional[float] = None
        self.error: Optional[Exception] = None
        self._tx_id = tx_id if tx_id is not None else envelope.tx_id  # type: ignore[union-attr]
        self._result: Optional[SubmitResult] = None
        self._callbacks: list[Callable[["PendingTransaction"], None]] = []

    @property
    def tx_id(self) -> str:
        return self._tx_id

    @property
    def done(self) -> bool:
        return self._result is not None or self.error is not None

    def result(self) -> SubmitResult:
        if self.error is not None:
            raise self.error
        if self._result is None:
            raise SchedulerError(
                f"transaction {self.tx_id} has not committed yet — "
                "run the scheduler (runtime.run / run_until_committed) first"
            )
        return self._result

    def add_done_callback(self, callback: Callable[["PendingTransaction"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _resolve(self, status: ValidationCode, at: float) -> None:
        self._result = SubmitResult(
            tx_id=self.tx_id,
            status=status,
            payload=self.client_payload,
            envelope=self.envelope,
        )
        self.committed_at = at
        self._fire_callbacks()

    def _fail(self, error: Exception) -> None:
        """Resolve the future exceptionally (endorsement could not finish)."""
        self.error = error
        self._fire_callbacks()


class _BlockProgress:
    """Delivery bookkeeping for one dispatched block."""

    __slots__ = ("expected", "committed")

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.committed = 0


class TransactionRuntime:
    """Owns the scheduler + bus and runs a network on them."""

    def __init__(
        self,
        network: "FabricNetwork",
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultInjector] = None,
        batch_timeout: float = DEFAULT_BATCH_TIMEOUT,
        mempool_limit: Optional[int] = None,
        validate_cost: Optional[ValidationCostModel] = None,
    ) -> None:
        self.network = network
        self.scheduler = EventScheduler(seed=seed)
        self.bus = MessageBus(self.scheduler, latency=latency, faults=faults)
        self.batch_timeout = batch_timeout
        if mempool_limit is not None and mempool_limit < 1:
            raise ConfigError(f"mempool limit must be >= 1, got {mempool_limit}")
        #: Max transactions in flight; ``None`` keeps the pipeline open-loop.
        self.mempool_limit = mempool_limit
        #: Submissions refused by the mempool bound.
        self.mempool_rejections = 0
        #: Optional simulated-time model charging each block's validation
        #: ``per_transaction`` sim-s per transaction, served FIFO per peer
        #: (see :meth:`_drain_inbound`); ``None`` commits each block the
        #: moment it arrives.
        self.validate_cost = validate_cost
        self.transactions_submitted = 0
        self.transactions_resolved = 0
        #: Per-peer validation-station bookkeeping (cost model only).
        self._busy_until: dict[str, float] = {}
        self._scheduled_height: dict[str, int] = {}
        self._pending: dict[str, PendingTransaction] = {}
        self._peers: dict[str, "PeerNode"] = {}
        self._deliver: dict[str, Callable[[Block], object]] = {}
        self._blocks: dict[int, _BlockProgress] = {}
        self._inbound: dict[str, dict[int, Block]] = {}
        self._batch_timer = None
        self._crashed: set[str] = set()
        #: Messages dropped because their destination peer was down.  Kept
        #: separate from the fault injector's drop count: a crash is a node
        #: fault, not a link fault, and liveness accounting treats it so.
        self.crash_drops = 0
        self._crash_listeners: list[Callable[["PeerNode"], None]] = []
        self._restart_listeners: list[Callable[["PeerNode"], None]] = []
        #: Latest sealed-snapshot height per peer — the orderer's backlog
        #: prune floor is the minimum over *all* peers (unsealed = 0), so
        #: no registered consumer's cursor can fall below the offset.
        self._sealed_heights: dict[str, int] = {}
        #: Active endorsement collectors, keyed by tx id.  A collector is
        #: registered when a plan's first wave is dispatched and removed
        #: when it finishes (quorum reached or failed); late responses for
        #: finished plans are simply discarded.
        self._collectors: dict[str, "EndorsementCollector"] = {}

        #: Early-aborted tx ids waiting for their conflicting block to
        #: fully commit before resolving (keeps abort-observation timing
        #: aligned with the post-commit abort the client would otherwise
        #: have seen), keyed by that block's number.
        self._aborts_by_block: dict[int, list[str]] = {}

        self.bus.register(ORDERER_ENDPOINT, self._on_orderer_message)
        self.bus.register(GATEWAY_ENDPOINT, self._on_gateway_message)
        # Block delivery: the dispatcher fans each cut block out onto
        # per-peer links.  No replay — registering a peer pulls the
        # backlog it is missing through the orderer's cursor.
        network.orderer.register_delivery(self._dispatch_block, replay=False)
        network.orderer.on_early_abort(self._on_early_abort)
        for peer in network.peers():
            self.register_peer(peer, network.delivery_handler_for(peer))
        # The run seed drives deterministic push-set rotation and the
        # anti-entropy source rotation, so a replayed seed picks the same
        # targets.
        network.gossip.rotation_seed = seed
        #: Digest-driven anti-entropy loop; ``None`` when the network's
        #: cadence is 0 (the on-demand reconciler remains available).
        self.anti_entropy: Optional[AntiEntropyEngine] = None
        every = getattr(network, "anti_entropy_every", 0.0)
        if every:
            self.anti_entropy = AntiEntropyEngine(self, every)
            self.anti_entropy.arm()

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.now

    def in_flight(self) -> int:
        """Transactions submitted but not yet resolved."""
        return len(self._pending)

    # -- topology ------------------------------------------------------------
    def register_peer(self, peer: "PeerNode", deliver: Callable[[Block], object]) -> None:
        """Give ``peer`` an inbox; a peer behind the orderer catches up now.

        The catch-up pulls only the blocks past the peer's current height
        through the orderer's cursor — O(missed blocks), not O(chain).  A
        peer whose height predates a pruned backlog must be bootstrapped
        from a snapshot first (:meth:`join_peer` does both).
        """
        for block in self.network.orderer.blocks_since(peer.ledger.blockchain.height):
            deliver(block)
        self._peers[peer.name] = peer
        self._deliver[peer.name] = deliver
        self.bus.register(peer.name, self._peer_handler(peer))
        peer.on_snapshot_seal(self._on_peer_sealed)
        sealed = peer.sealed_snapshot_height()
        if sealed is not None:
            self._sealed_heights[peer.name] = sealed

    def join_peer(self, peer: "PeerNode", deliver: Callable[[Block], object]) -> None:
        """Admit a newly created peer, bootstrapping from a snapshot.

        When snapshotting is on and some live peer holds a sealed
        snapshot ahead of the joiner, the joiner loads that package and
        replays only the tail — the checkpointed-bootstrap path.  Without
        one (or with snapshots off) it falls back to full replay via
        :meth:`register_peer`, which requires the backlog to be unpruned.
        """
        if self.network.snapshot_every:
            package = self.network.gossip.fetch_snapshot(
                peer, min_height=self.network.orderer.backlog_offset
            )
            if package is not None and package.manifest.height > peer.ledger.height:
                bootstrap_from_package(peer.ledger, package, peer.channel)
        self.register_peer(peer, deliver)

    # -- the submit phase ----------------------------------------------------
    def submit(
        self, envelope: TransactionEnvelope, client_payload: bytes = b""
    ) -> PendingTransaction:
        """Enqueue an assembled envelope for ordering; returns a future."""
        pending = PendingTransaction(envelope, client_payload)
        pending.submitted_at = self.now
        self.submit_pending(pending)
        return pending

    def submit_pending(self, pending: PendingTransaction) -> None:
        """Enqueue a future whose envelope was just attached (fan-out path)."""
        if pending.envelope is None:
            raise ConfigError(
                f"transaction {pending.tx_id} has no envelope to submit"
            )
        if pending.tx_id in self._pending:
            raise ConfigError(f"transaction {pending.tx_id} is already in flight")
        if self.mempool_limit is not None and len(self._pending) >= self.mempool_limit:
            self.mempool_rejections += 1
            tracer = self.network.tracer
            if tracer:
                tracer.record(
                    "runtime", "mempool-reject", pending.tx_id,
                    limit=self.mempool_limit,
                )
            raise MempoolFullError(pending.tx_id, self.mempool_limit)
        self._pending[pending.tx_id] = pending
        self.transactions_submitted += 1
        self.bus.send(CLIENT_SOURCE, ORDERER_ENDPOINT, TOPIC_SUBMIT, pending.envelope)

    # -- the endorsement fan-out ---------------------------------------------
    def endorse_async(
        self,
        gateway,
        proposal,
        plan,
        timeout: float,
    ) -> PendingTransaction:
        """Run an endorsement plan over the bus; returns the tx future.

        Proposals for the plan's opening wave are dispatched in parallel
        sim-time as ``endorse-proposal`` messages; the collector gathers
        ``endorse-result`` replies, completes as soon as the responses
        satisfy the policy, escalates to backups on failure/timeout, and
        finally assembles + submits the envelope through the normal
        ordering path — or fails the future with a typed
        :class:`~repro.common.errors.EndorsementError`.
        """
        from repro.runtime.endorse import EndorsementCollector

        pending = PendingTransaction(None, tx_id=proposal.tx_id)
        pending.submitted_at = self.now
        collector = EndorsementCollector(
            runtime=self,
            gateway=gateway,
            proposal=proposal,
            plan=plan,
            pending=pending,
            timeout=timeout,
        )
        self._collectors[proposal.tx_id] = collector
        collector.start()
        return pending

    def _on_gateway_message(self, message: Message) -> None:
        tx_id, peer_name, outcome = message.payload
        collector = self._collectors.get(tx_id)
        if collector is not None:
            collector.on_result(peer_name, outcome)

    # -- the ordering phase --------------------------------------------------
    def _on_orderer_message(self, message: Message) -> None:
        envelope: TransactionEnvelope = message.payload
        tracer = self.network.tracer
        if tracer:
            tracer.record(
                ORDERER_ENDPOINT, "enqueue-envelope", envelope.tx_id,
                pending=self.network.orderer.pending_count + 1,
            )
        self.network.orderer.submit(envelope)
        self._update_batch_timer()

    def _update_batch_timer(self) -> None:
        """Arm the batch-timeout timer iff a partial batch is pending."""
        if self.network.orderer.pending_count == 0:
            if self._batch_timer is not None:
                self._batch_timer.cancel()
                self._batch_timer = None
        elif self._batch_timer is None:
            self._batch_timer = self.scheduler.call_later(
                self.batch_timeout, self._batch_timeout_fired
            )

    def _batch_timeout_fired(self) -> None:
        self._batch_timer = None
        orderer = self.network.orderer
        if orderer.pending_count:
            tracer = self.network.tracer
            if tracer:
                tracer.record(
                    ORDERER_ENDPOINT, "batch-timeout", pending=orderer.pending_count
                )
            orderer.flush()
        self._update_batch_timer()

    # -- the delivery phase --------------------------------------------------
    def _dispatch_block(self, block: Block) -> None:
        """Orderer delivery handler: fan the block out per peer link."""
        self._blocks[block.header.number] = _BlockProgress(expected=len(self._peers))
        for name in self._peers:
            self.bus.send(ORDERER_ENDPOINT, name, TOPIC_DELIVER, block)
        # The cut consumed the pending batch; re-arm for any remainder.
        self._update_batch_timer()

    def _peer_handler(self, peer: "PeerNode") -> Callable[[Message], None]:
        def handle(message: Message) -> None:
            if peer.name in self._crashed:
                self.crash_drops += 1
                return
            if message.topic == TOPIC_DELIVER:
                self._commit_at_peer(peer, message.payload)
            elif message.topic == TOPIC_GOSSIP_BATCH:
                tx_id, batch = message.payload
                peer.receive_private_batch(tx_id, batch)
            elif message.topic in ANTI_ENTROPY_TOPICS:
                if self.anti_entropy is not None:
                    self.anti_entropy.on_message(peer, message)
            elif message.topic == TOPIC_SNAPSHOT_SIG:
                manifest, certificate, signature = message.payload
                peer.receive_snapshot_sig(manifest, certificate, signature)
            elif message.topic == TOPIC_ENDORSE:
                proposal = message.payload
                try:
                    result = self.network.process_endorsement(peer, proposal)
                except EndorsementError as exc:
                    result = exc
                self.bus.send(
                    peer.name, GATEWAY_ENDPOINT, TOPIC_ENDORSE_RESULT,
                    (proposal.tx_id, peer.name, result),
                )
            else:  # pragma: no cover - future topics
                raise ConfigError(f"peer {peer.name!r} got unknown topic {message.topic!r}")

        return handle

    def _commit_at_peer(self, peer: "PeerNode", block: Block) -> None:
        """Buffer the block and commit every in-order block now available.

        Fault models can drop or reorder ``deliver-block`` messages, so a
        peer may see block *n+1* before *n*.  Fabric's deliver client keeps
        a resume cursor; we model that with a per-peer out-of-order buffer —
        a block commits only when it is exactly the peer's next block, and a
        buffered successor commits right after the gap fills.
        """
        buffer = self._inbound.setdefault(peer.name, {})
        number = block.header.number
        if number < peer.ledger.blockchain.height or number in buffer:
            return  # duplicate delivery (e.g. catch-up raced a late message)
        buffer[number] = block
        self._drain_inbound(peer)

    def _drain_inbound(self, peer: "PeerNode") -> int:
        """Commit or schedule every in-order block; returns blocks taken.

        Without a cost model a block commits inline, exactly as the event
        arrives.  With one, validation is a per-peer FIFO service station
        instead of an instantaneous call: each block occupies the peer for
        ``per_transaction``·txs simulated seconds, starting when the block
        arrives or when the previous block's service ends, whichever is
        later.  Blocks are scheduled in height order; the actual
        validate+commit runs when the service ends, with crash and
        stale-height guards (a crash or catch-up between scheduling and
        firing just drops the stale event).
        """
        buffer = self._inbound.setdefault(peer.name, {})
        name = peer.name
        height = max(
            self._scheduled_height.get(name, 0), peer.ledger.blockchain.height
        )
        taken = 0
        while height in buffer:
            block = buffer.pop(height)
            taken += 1
            if self.validate_cost is None:
                self._deliver[name](block)
                self._note_committed(block)
                height = peer.ledger.blockchain.height
                continue
            service = self.validate_cost.service_seconds(len(block.transactions))
            start = max(self.now, self._busy_until.get(name, 0.0))
            self._busy_until[name] = start + service
            height += 1
            self._scheduled_height[name] = height
            self.scheduler.call_later(
                self._busy_until[name] - self.now,
                lambda p=peer, b=block: self._finish_timed_commit(p, b),
            )
        return taken

    def _finish_timed_commit(self, peer: "PeerNode", block: Block) -> None:
        if peer.name in self._crashed:
            self.crash_drops += 1  # the station died with the process
            return
        if block.header.number != peer.ledger.blockchain.height:
            return  # already committed by a catch-up/restart refill
        self._deliver[peer.name](block)
        self._note_committed(block)

    def _note_committed(self, block: Block) -> None:
        if self.anti_entropy is not None:
            # A commit may have recorded fresh gaps; make sure a tick is
            # pending to discover them (no-op while one already is).
            self.anti_entropy.arm()
        progress = self._blocks.get(block.header.number)
        if progress is None:  # pragma: no cover - defensive
            return
        progress.committed += 1
        if progress.committed < progress.expected:
            return
        del self._blocks[block.header.number]
        for tx in block.transactions:
            pending = self._pending.pop(tx.tx_id, None)
            if pending is not None:
                status = self.network.status_of(tx.tx_id)
                pending._resolve(status, at=self.now)
                self.transactions_resolved += 1
        for tx_id in self._aborts_by_block.pop(block.header.number, []):
            self._resolve_early_abort(tx_id)

    def _on_early_abort(
        self, envelope: TransactionEnvelope, reason: str, conflict_block: Optional[int]
    ) -> None:
        """An ordering-time abort from the conflict-aware pipeline.

        If the write that dooms the transaction lives in a block still
        being delivered, resolution waits for that block's full commit —
        the moment the equivalent post-commit MVCC abort would have become
        observable; otherwise the conflict is already committed state and
        the client learns immediately (the early part of early abort).
        """
        tx_id = envelope.tx_id
        if tx_id not in self._pending:
            return
        if conflict_block is not None and conflict_block in self._blocks:
            self._aborts_by_block.setdefault(conflict_block, []).append(tx_id)
        else:
            self._resolve_early_abort(tx_id)

    def _resolve_early_abort(self, tx_id: str) -> None:
        pending = self._pending.pop(tx_id, None)
        if pending is not None:
            pending._resolve(ValidationCode.ORDERER_EARLY_ABORT, at=self.now)
            self.transactions_resolved += 1

    # -- crash / recovery -----------------------------------------------------
    def on_crash(self, listener: Callable[["PeerNode"], None]) -> None:
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[["PeerNode"], None]) -> None:
        """Listeners fire after recovery but *before* the peer catches up —
        they observe exactly the state the storage engine recovered."""
        self._restart_listeners.append(listener)

    def crash_peer(self, name: str) -> None:
        """Kill a peer process: in-flight messages to it drop on arrival,
        its storage handles close abruptly, and it stops endorsing."""
        peer = self._peers.get(name)
        if peer is None:
            raise ConfigError(f"no peer {name!r} registered with the runtime")
        if name in self._crashed:
            return  # overlapping fault windows: already down
        tracer = self.network.tracer
        if tracer:
            tracer.record(name, "peer-crash", height=peer.ledger.height)
        # Listeners snapshot the peer's committed state before the process
        # dies (the durability check compares recovery against it).
        for listener in self._crash_listeners:
            listener(peer)
        self._crashed.add(name)
        self._inbound.pop(name, None)  # buffered blocks die with the process
        self._busy_until.pop(name, None)
        self._scheduled_height.pop(name, None)
        peer.crash()

    def restart_peer(self, name: str) -> None:
        """Recover a crashed peer from its durable state and rejoin.

        Restart listeners run at the exact recovery height (the durability
        invariant compares recovered state against the reference model
        there); only then does the peer refill its deliver cursor from the
        orderer backlog and commit what it missed.
        """
        peer = self._peers.get(name)
        if peer is None:
            raise ConfigError(f"no peer {name!r} registered with the runtime")
        if name not in self._crashed:
            return  # overlapping fault windows: never went down
        peer.restart()
        self._crashed.discard(name)
        tracer = self.network.tracer
        if tracer:
            tracer.record(name, "peer-restart", height=peer.ledger.height)
        for listener in self._restart_listeners:
            listener(peer)
        # Rejoin: pull everything past the recovered height, as the deliver
        # client does when it reconnects.  The backlog is pruned only to
        # the minimum sealed height across peers, so a recovered height
        # below the offset means the peer's durable state predates every
        # retained block — rebuild it from a snapshot, then replay the tail.
        try:
            self._refill_from_orderer(peer)
        except PrunedBacklogError:
            package = self.network.gossip.fetch_snapshot(
                peer, min_height=self.network.orderer.backlog_offset
            )
            if package is None:
                raise
            peer.ledger.reset_stores()
            bootstrap_from_package(peer.ledger, package, peer.channel)
            if tracer:
                tracer.record(
                    name, "peer-snapshot-bootstrap", height=peer.ledger.blockchain.height
                )
            self._refill_from_orderer(peer)

    def crashed_peers(self) -> set[str]:
        return set(self._crashed)

    def catch_up(self) -> int:
        """Re-deliver blocks that faults dropped; returns blocks committed.

        Models the deliver client reconnecting after a partition heals: each
        peer asks the orderer for everything past its current height, fills
        the out-of-order buffer, and commits the backlog in order.  Futures
        for the caught-up blocks resolve through the normal bookkeeping.
        Call after :meth:`run` when a fault schedule may have cut
        ``orderer → peer`` links.
        """
        committed = 0
        for name, peer in self._peers.items():
            if name in self._crashed:
                continue  # a down peer cannot reconnect; restart it first
            committed += self._refill_from_orderer(peer)
        return committed

    def _refill_from_orderer(self, peer: "PeerNode") -> int:
        """Buffer the orderer's blocks past the peer's cursor and drain them.

        Returns the blocks the drain took.  With a cost model the drain
        *schedules* commits rather than performing them, so this counts
        what it took, not a height delta (the height moves when the
        scheduled events fire).  Raises :class:`PrunedBacklogError` before
        touching the buffer when the cursor predates the pruned backlog.
        """
        buffer = self._inbound.setdefault(peer.name, {})
        cursor = max(
            peer.ledger.blockchain.height, self._scheduled_height.get(peer.name, 0)
        )
        for block in self.network.orderer.blocks_since(cursor):
            buffer.setdefault(block.header.number, block)
        return self._drain_inbound(peer)

    # -- snapshot checkpointing ----------------------------------------------
    def _on_peer_sealed(self, peer: "PeerNode", manifest) -> None:
        self._sealed_heights[peer.name] = max(
            self._sealed_heights.get(peer.name, 0), manifest.height
        )
        self._maybe_prune_backlog()

    def _maybe_prune_backlog(self) -> None:
        """Archive orderer backlog below the fleet-wide sealed floor.

        Conservative by construction: the floor is the minimum sealed
        snapshot height over *all* registered peers (a peer with no seal
        counts as 0), so every live or restartable consumer keeps a valid
        cursor.  Only peers created *after* pruning — fresh joiners — ever
        need the snapshot-bootstrap path.
        """
        if not self.network.prune_enabled or not self._peers:
            return
        floor = min(self._sealed_heights.get(name, 0) for name in self._peers)
        self.network.orderer.prune_delivered(floor)

    # -- driving the loop ----------------------------------------------------
    def run(self, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Drain every scheduled event (delivers all resolvable futures)."""
        return self.scheduler.run(max_events=max_events)

    def run_for(self, duration: float, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        return self.scheduler.run_for(duration, max_events=max_events)

    def run_until_committed(
        self, pending: PendingTransaction, max_events: int = DEFAULT_MAX_EVENTS
    ) -> SubmitResult:
        """Run the loop until ``pending`` resolves; error if it cannot."""
        if not self.scheduler.run_until(lambda: pending.done, max_events=max_events):
            raise SchedulerError(
                f"transaction {pending.tx_id} cannot commit: the event queue "
                "drained first (a fault model may have dropped its messages)"
            )
        return pending.result()
