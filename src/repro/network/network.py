"""The assembled Fabric network: channel + peers + gossip + ordering.

:class:`FabricNetwork` is the top-level object applications (and the
attack/defense experiments) interact with.  It owns the wiring of Fig. 1:
organizations contribute peers and clients, peers register with the gossip
layer and with block delivery, and the ordering service turns submitted
envelopes into blocks every peer validates independently.  Every message
between them rides one event runtime, :attr:`FabricNetwork.runtime`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.chaincode.api import Chaincode
from repro.client.gateway import Gateway, SubmitResult
from repro.common.errors import ConfigError, EndorsementError
from repro.common.tracing import PERF, Tracer
from repro.core.defense.features import FrameworkFeatures
from repro.gossip.dissemination import GossipNetwork
from repro.gossip.reconciler import Reconciler
from repro.network.channel import ChannelConfig
from repro.orderer.reorder import ReorderPipeline, conflict_scopes
from repro.orderer.service import OrderingService
from repro.peer.endorser import EndorsementOutput
from repro.peer.node import PeerNode
from repro.protocol.proposal import Proposal
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage import open_backend, resolve_backend_kind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ledger.block import Block
    from repro.runtime.faults import FaultInjector, LatencyModel
    from repro.runtime.runtime import PendingTransaction, TransactionRuntime


class FabricNetwork:
    """One channel's worth of running infrastructure."""

    def __init__(
        self,
        channel: ChannelConfig,
        features: FrameworkFeatures | None = None,
        orderer_cluster_size: int = 3,
        batch_size: int = 1,
        tracer: "Tracer | None" = None,
        state_backend: str | None = None,
        state_dir: str | None = None,
        snapshot_every: int = 0,
        prune: bool = False,
        reorder: bool = False,
        gossip_batch: bool = True,
        anti_entropy_every: float = 0.0,
    ) -> None:
        self.channel = channel
        self.features = features or FrameworkFeatures.original()
        # Storage engine for every peer ledger in this network (resolved
        # from REPRO_STATE_BACKEND when not given).  ``state_dir`` roots
        # the per-peer WAL directories; by default each peer gets a fresh
        # scratch directory.
        self.state_backend = resolve_backend_kind(state_backend)
        self._state_dir = state_dir
        # Snapshot checkpointing interval and pruning switch for every
        # peer (0 / False keep the un-snapshotted reference behaviour).
        if snapshot_every < 0:
            raise ConfigError(f"snapshot interval must be >= 0, got {snapshot_every}")
        self.snapshot_every = snapshot_every
        self.prune_enabled = prune
        # Dissemination always ships one payload per target; the keyword
        # stays so callers that pass True keep working.
        if not gossip_batch:
            raise ConfigError(
                "gossip_batch must be True: dissemination always sends one "
                "payload per target"
            )
        # Cadence (simulated seconds) of the digest-driven anti-entropy
        # loop the runtime schedules (0 = off).
        if anti_entropy_every < 0:
            raise ConfigError(
                f"anti-entropy cadence must be >= 0, got {anti_entropy_every}"
            )
        self.anti_entropy_every = anti_entropy_every
        # The runtime is looked up per message: it may be built later.
        self.gossip = GossipNetwork(
            channel, send=lambda *message: self.runtime.bus.send(*message)
        )
        self.reconciler = Reconciler(self.gossip)
        # Conflict-aware ordering: the orderer reorders each cut batch
        # along its conflict graph and early-aborts provably doomed
        # transactions.
        self.orderer = OrderingService(
            cluster_size=orderer_cluster_size,
            batch_size=batch_size,
            reorderer=ReorderPipeline(channel, self.features) if reorder else None,
        )
        self._peers: dict[str, PeerNode] = {}
        self.tracer = tracer
        if reorder and tracer is not None:
            self.orderer.on_early_abort(
                lambda envelope, reason, conflict_block: tracer.record(
                    "orderer", "early-abort", envelope.tx_id,
                    reason=reason, conflict_block=conflict_block,
                )
            )
        self._runtime: "TransactionRuntime | None" = None

    # -- topology ------------------------------------------------------------
    def _build_peer(
        self, msp_id: str, name: str, features: FrameworkFeatures | None
    ) -> PeerNode:
        """Enroll, construct and gossip-register a peer (no delivery yet)."""
        org = self.channel.organization(msp_id)
        identity = org.enroll_peer(name)
        backend = open_backend(
            self.state_backend, directory=self._state_dir, name=identity.enrollment_id
        )
        peer = PeerNode(
            identity=identity,
            channel=self.channel,
            features=features or self.features,
            backend=backend,
            snapshot_every=self.snapshot_every,
            prune=self.prune_enabled,
        )
        if peer.name in self._peers:
            raise ConfigError(f"peer {peer.name!r} already exists")
        self._peers[peer.name] = peer
        self.gossip.register_peer(peer)
        peer.on_snapshot_sig(
            lambda source, manifest, cert, sig: self.gossip.broadcast_snapshot_sig(
                source, manifest, cert, sig
            )
        )
        return peer

    def add_peer(
        self,
        msp_id: str,
        name: str = "peer0",
        features: FrameworkFeatures | None = None,
    ) -> PeerNode:
        """Create a peer for ``msp_id`` and wire it into gossip + delivery.

        A peer added after traffic catches up on the orderer's backlog
        now; before traffic, the runtime registers it when it is built.
        """
        peer = self._build_peer(msp_id, name, features)
        if self._runtime:
            self._admit(peer, self._runtime.register_peer)
        return peer

    def join_peer(
        self,
        msp_id: str,
        name: str = "peer0",
        features: FrameworkFeatures | None = None,
    ) -> PeerNode:
        """Add a peer that bootstraps from a snapshot + tail replay.

        When a gossip peer offers a sealed snapshot reaching at least the
        orderer's pruned-backlog offset, the new peer loads the verified
        package and replays only the tail; otherwise it falls back to the
        full replay :meth:`add_peer` performs (raising
        :class:`~repro.common.errors.PrunedBacklogError` if the backlog no
        longer reaches back to genesis).
        """
        runtime = self.runtime
        peer = self._build_peer(msp_id, name, features)
        self._admit(peer, runtime.join_peer)
        return peer

    def _admit(
        self,
        peer: PeerNode,
        register: Callable[[PeerNode, Callable[["Block"], object]], None],
    ) -> None:
        """Hand a built peer to the runtime.  A refused peer (a pruned
        backlog) is unbuilt, or gossip would push to it with no bus
        endpoint."""
        try:
            register(peer, self.delivery_handler_for(peer))
        except Exception:
            del self._peers[peer.name]
            self.gossip.unregister_peer(peer)
            peer.ledger.backend.close()
            raise

    def delivery_handler_for(self, peer: PeerNode) -> Callable[["Block"], object]:
        """The (optionally traced) block-delivery callable for ``peer``.

        The runtime asks for it when the peer registers, and an untraced
        handler is the peer's ``deliver_block`` at that moment.
        """
        if self._peers.get(peer.name) is not peer:
            raise ConfigError(f"peer {peer.name!r} is not part of this network")
        if self.tracer is None:
            return peer.deliver_block

        def traced_delivery(block, _peer=peer):
            self.tracer.record(
                "orderer", "deliver-block", block=block.header.number, to=_peer.name
            )
            validated = _peer.deliver_block(block)
            scopes = conflict_scopes(block.transactions, validated.flags)
            for tx, flag in zip(block.transactions, validated.flags):
                detail = {"flag": flag.value}
                if tx.tx_id in scopes:
                    detail["scope"] = scopes[tx.tx_id]
                self.tracer.record(_peer.name, "validate+commit", tx.tx_id, **detail)
            return validated

        return traced_delivery

    # -- the event-driven runtime ---------------------------------------------
    @property
    def runtime(self) -> "TransactionRuntime":
        """The event runtime every message of this network rides.

        :meth:`attach_runtime` configures it; a network that never calls
        it gets one with the defaults on first use.
        """
        return self._runtime or self.attach_runtime()

    def attach_runtime(
        self,
        seed: int = 0,
        latency: "LatencyModel | None" = None,
        faults: "FaultInjector | None" = None,
        batch_timeout: float | None = None,
        mempool_limit: int | None = None,
        validate_cost=None,
    ) -> "TransactionRuntime":
        """Build this network's event runtime with the given settings.

        Gossip pushes, endorsement proposals and block deliveries travel
        as scheduled messages; ``submit_async`` pipelines transactions and
        the synchronous ``submit_transaction`` runs the event loop until
        its own commit.  Call it once, after adding peers and before any
        traffic: the first traffic builds the runtime with these defaults,
        and attaching after that raises :class:`ConfigError`.

        ``mempool_limit`` bounds transactions in flight (default:
        unbounded); ``validate_cost`` attaches a
        :class:`~repro.runtime.executor.ValidationCostModel` charging each
        block's validation ``per_transaction`` sim-s per transaction.
        """
        if self._runtime:
            raise ConfigError(
                "this network already has a runtime: attach_runtime() must "
                "be called once, before any traffic"
            )
        from repro.runtime.runtime import DEFAULT_BATCH_TIMEOUT, TransactionRuntime

        self._runtime = TransactionRuntime(
            self,
            seed=seed,
            latency=latency,
            faults=faults,
            batch_timeout=(
                DEFAULT_BATCH_TIMEOUT if batch_timeout is None else batch_timeout
            ),
            mempool_limit=mempool_limit,
            validate_cost=validate_cost,
        )
        return self._runtime

    def peer(self, name: str) -> PeerNode:
        try:
            return self._peers[name]
        except KeyError:
            raise ConfigError(f"no peer named {name!r}") from None

    def peers(self) -> list[PeerNode]:
        return list(self._peers.values())

    def peers_of(self, msp_id: str) -> list[PeerNode]:
        return [p for p in self._peers.values() if p.msp_id == msp_id]

    def default_peer_for(self, msp_id: str) -> PeerNode:
        peers = self.peers_of(msp_id)
        if not peers:
            raise ConfigError(f"organization {msp_id!r} has no peers")
        return peers[0]

    def default_endorsers(self) -> list[PeerNode]:
        """One peer per organization — enough for any MAJORITY/ALL policy."""
        seen: dict[str, PeerNode] = {}
        for peer in self._peers.values():
            seen.setdefault(peer.msp_id, peer)
        return list(seen.values())

    def client(self, msp_id: str, name: str = "client0") -> Gateway:
        identity = self.channel.organization(msp_id).enroll_client(name)
        return Gateway(identity=identity, network=self)

    # -- chaincode ------------------------------------------------------------
    def install_chaincode(
        self,
        name: str,
        contract_factory: Callable[[PeerNode], Chaincode] | Chaincode,
        peers: Optional[Sequence[PeerNode]] = None,
    ) -> None:
        """Install a contract on the given peers (default: all).

        Pass a factory ``peer -> Chaincode`` to install per-peer customized
        implementations (org-specific constraints — or malicious forks).
        """
        targets = list(peers) if peers is not None else self.peers()
        for peer in targets:
            if callable(contract_factory) and not isinstance(contract_factory, Chaincode):
                contract = contract_factory(peer)
            else:
                contract = contract_factory  # shared instance: contracts are stateless
            peer.install_chaincode(name, contract)

    # -- the execution phase (endorsement + dissemination) ----------------------
    def request_endorsement(
        self, peer: PeerNode, proposal: Proposal, reusable: bool = False
    ) -> EndorsementOutput:
        """Endorse at ``peer``; on success, stage + gossip the private writes."""
        if self.tracer:
            self.tracer.record(
                "client", "send-proposal", proposal.tx_id,
                to=peer.name, function=proposal.function,
            )
        return self.process_endorsement(peer, proposal, reusable=reusable)

    def process_endorsement(
        self, peer: PeerNode, proposal: Proposal, reusable: bool = False
    ) -> EndorsementOutput:
        """The peer-side half of endorsement: simulate, sign, stage, gossip.

        Split from :meth:`request_endorsement` so the runtime fan-out path
        (where the "send-proposal" happens at the gateway, message delivery
        later) can run exactly the peer-side work on arrival.  Wall time is
        accumulated into the ``endorse`` perf phase.
        """
        started = time.perf_counter()
        try:
            output = peer.endorse(proposal, reusable=reusable)
        finally:
            PERF.add_phase_time("endorse", time.perf_counter() - started)
        if self.tracer:
            self.tracer.record(peer.name, "simulate+endorse", proposal.tx_id)
        if output.private_writes:
            peer.stage_private_writes(proposal.tx_id, output.private_writes)
            pushed = self.gossip.disseminate(peer, proposal.tx_id, output.private_writes)
            if self.tracer:
                self.tracer.record(
                    peer.name, "gossip-private-rwset", proposal.tx_id, pushes=pushed
                )
        return output

    # -- the ordering + validation phases ------------------------------------------
    def submit_envelope(
        self, envelope: TransactionEnvelope, client_payload: bytes = b""
    ) -> SubmitResult:
        """Order the envelope, wait for commit, and report the outcome.

        The returned status is the flag computed by the peers — honest
        peers always agree because validation is deterministic over the
        same block and (converged) state — or ``ORDERER_EARLY_ABORT``.
        The envelope is enqueued like any async submission and the event
        loop runs until its commit resolves, so a partial batch pays the
        batch timeout in simulated time.
        """
        pending = self.submit_envelope_async(envelope, client_payload)
        return self.runtime.run_until_committed(pending)

    def submit_envelope_async(
        self, envelope: TransactionEnvelope, client_payload: bytes = b""
    ) -> "PendingTransaction":
        """Enqueue an assembled envelope on the runtime; returns a future.

        The pipelined counterpart of :meth:`submit_envelope`: it does *not*
        advance the event loop, so many transactions can be put in flight
        before any block is cut.
        """
        if self.tracer:
            self.tracer.record(
                "client", "assemble+submit", envelope.tx_id,
                endorsements=len(envelope.endorsements),
            )
        return self.runtime.submit(envelope, client_payload)

    def status_of(self, tx_id: str) -> ValidationCode:
        """The validation flag peers agree on for a committed transaction."""
        statuses = set()
        for peer in self._peers.values():
            status = peer.transaction_status(tx_id)
            if status is not None:
                statuses.add(status)
        if not statuses:
            raise EndorsementError(f"transaction {tx_id} was never committed to any peer")
        if len(statuses) > 1:  # pragma: no cover - would indicate a simulator bug
            raise EndorsementError(f"peers disagree on tx {tx_id}: {statuses}")
        return statuses.pop()

    # -- maintenance --------------------------------------------------------------
    def reconcile_private_data(self) -> int:
        """Run one reconciliation sweep; returns the number of repairs."""
        return self.reconciler.reconcile_all()
