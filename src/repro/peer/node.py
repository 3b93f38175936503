"""A peer node: endorser + validator + committer + local ledger.

Each peer holds its own :class:`PeerLedger`, its own (possibly customized)
chaincode installations, and its own framework feature flags — a defended
network is simply a network of peers constructed with the defense features
enabled.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.chaincode.api import Chaincode
from repro.chaincode.rwset import PrivateCollectionWrites
from repro.common.errors import ConfigError, EndorsementError
from repro.common.tracing import PERF
from repro.core.defense.features import FrameworkFeatures
from repro.identity.identity import Certificate, SigningIdentity
from repro.ledger.block import Block, ValidatedBlock
from repro.ledger.ledger import PeerLedger
from repro.ledger.snapshot import (
    SNAPSHOT_POLICY,
    SnapshotManifest,
    SnapshotPackage,
    SnapshotRecord,
    SnapshotStore,
    build_snapshot,
    filter_package_for,
)
from repro.peer.committer import Committer
from repro.peer.endorser import EndorsementOutput, Endorser
from repro.peer.validator import Validator
from repro.protocol.proposal import Proposal
from repro.protocol.transaction import ValidationCode
from repro.storage import KVBackend, WriteBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig

CommitListener = Callable[["PeerNode", ValidatedBlock], None]
SnapshotSigListener = Callable[["PeerNode", SnapshotManifest, Certificate, bytes], None]
SnapshotSealListener = Callable[["PeerNode", SnapshotManifest], None]


class PeerNode:
    """One peer on one channel."""

    def __init__(
        self,
        identity: SigningIdentity,
        channel: "ChannelConfig",
        features: FrameworkFeatures | None = None,
        backend: Optional[KVBackend] = None,
        snapshot_every: int = 0,
        prune: bool = False,
    ) -> None:
        self.identity = identity
        self.channel = channel
        self.features = features or FrameworkFeatures.original()
        self.ledger = PeerLedger(backend)
        self.crashed = False
        self.snapshot_every = snapshot_every
        self.prune_enabled = prune
        self.snapshots = SnapshotStore(self.ledger)
        self._chaincodes: dict[str, Chaincode] = {}
        self._endorser = Endorser(
            identity=identity,
            ledger=self.ledger,
            channel=channel,
            chaincodes=self._chaincodes,
            features=self.features,
        )
        self._validator = Validator(channel=channel, features=self.features)
        self._committer = Committer(channel=channel, local_msp_id=identity.msp_id)
        self._commit_listeners: list[CommitListener] = []
        self._snapshot_sig_listeners: list[SnapshotSigListener] = []
        self._snapshot_seal_listeners: list[SnapshotSealListener] = []
        # Signatures received for a snapshot height this peer has not yet
        # produced (peers commit the same block at different instants).
        self._pending_snapshot_sigs: dict[int, list] = {}

    # -- identity helpers ---------------------------------------------------
    @property
    def name(self) -> str:
        return self.identity.enrollment_id

    @property
    def msp_id(self) -> str:
        return self.identity.msp_id

    @property
    def certificate(self) -> Certificate:
        return self.identity.certificate

    # -- chaincode installation ----------------------------------------------
    def install_chaincode(self, name: str, contract: Chaincode) -> None:
        """Install (or replace) this peer's implementation of ``name``.

        Installing a *different* implementation than other peers is legal
        — the customizable-chaincode feature — and is how both the per-org
        business constraints and the paper's collusion attacks are set up.
        """
        if not self.channel.chaincodes.get(name):
            raise ConfigError(f"chaincode {name!r} is not deployed on {self.channel.channel_id!r}")
        self._chaincodes[name] = contract

    # -- crash / recovery -----------------------------------------------------
    def crash(self) -> None:
        """Simulate the peer process dying: drop its storage handles."""
        if not self.crashed:
            self.crashed = True
            self._pending_snapshot_sigs.clear()
            self.ledger.crash()

    def restart(self) -> None:
        """Recover the ledger from its durable medium and rejoin."""
        if self.crashed:
            self.ledger.reopen()
            self.crashed = False

    # -- execution phase ------------------------------------------------------
    def endorse(self, proposal: Proposal, reusable: bool = False) -> EndorsementOutput:
        """Simulate + sign a proposal (raises EndorsementError on failure).

        ``reusable`` marks query-style requests eligible for the peer-side
        simulation cache (see :class:`~repro.peer.endorser.Endorser`).
        """
        if self.crashed:
            raise EndorsementError(f"peer {self.name} is down")
        return self._endorser.process_proposal(proposal, reusable=reusable)

    def stage_private_writes(
        self, tx_id: str, private_writes: tuple[PrivateCollectionWrites, ...]
    ) -> None:
        """Park plaintext private writes until the transaction commits."""
        for writes in private_writes:
            self.ledger.transient_store.put(tx_id, writes, self.ledger.height)

    def receive_private_data(self, tx_id: str, writes: PrivateCollectionWrites) -> None:
        """Store one disseminated collection rwset."""
        self.ledger.transient_store.put(tx_id, writes, self.ledger.height)

    def receive_private_batch(
        self, tx_id: str, batch: tuple[PrivateCollectionWrites, ...]
    ) -> None:
        """Gossip push handler: one payload, every collection rwset.

        Routed through :meth:`receive_private_data` per record, the single
        seam where disseminated plaintext enters the transient store.
        """
        for writes in batch:
            self.receive_private_data(tx_id, writes)

    # -- validation phase ------------------------------------------------------
    def deliver_block(self, block: Block) -> ValidatedBlock:
        """Validate and commit an ordered block (steps 13-20 of Fig. 2)."""
        started = time.perf_counter()
        flags = self._validator.validate_block(block, self.ledger)
        validated_at = time.perf_counter()
        validated = self._committer.commit_block(block, flags, self.ledger)
        PERF.add_phase_time("validate", validated_at - started)
        PERF.add_phase_time("commit", time.perf_counter() - validated_at)
        for listener in self._commit_listeners:
            listener(self, validated)
        self.maybe_snapshot()
        return validated

    def on_commit(self, listener: CommitListener) -> None:
        self._commit_listeners.append(listener)

    # -- snapshot checkpointing ------------------------------------------------
    def on_snapshot_sig(self, listener: SnapshotSigListener) -> None:
        """Observe this peer's own manifest signatures (gossip broadcast)."""
        self._snapshot_sig_listeners.append(listener)

    def on_snapshot_seal(self, listener: SnapshotSealListener) -> None:
        """Observe snapshots reaching policy quorum at this peer."""
        self._snapshot_seal_listeners.append(listener)

    def maybe_snapshot(self) -> Optional[SnapshotRecord]:
        """Produce a snapshot when the ledger height hits the interval."""
        every = self.snapshot_every
        height = self.ledger.height
        if not every or height == 0 or height % every != 0:
            return None
        if self.snapshots.manifest_bytes(height) is not None:
            return None
        return self.produce_snapshot()

    def produce_snapshot(self) -> SnapshotRecord:
        """Capture, sign and store a snapshot at the current height."""
        record = build_snapshot(self.ledger, self.channel.channel_id)
        manifest = record.manifest
        signature = self.identity.sign(manifest.signing_bytes())
        record.signatures[self.name] = (self.certificate, signature)
        # Apply signatures that arrived before this peer reached the height.
        for certificate, sig, their_manifest in self._pending_snapshot_sigs.pop(
            manifest.height, ()
        ):
            if their_manifest == manifest:
                record.signatures[certificate.enrollment_id] = (certificate, sig)
        record.sealed = self._quorum([cert for cert, _ in record.signatures.values()])
        batch = WriteBatch()
        self.snapshots.stage_record(batch, record)
        self.ledger.commit_batch(batch)
        if record.sealed:
            self._sealed(manifest)
        for listener in self._snapshot_sig_listeners:
            listener(self, manifest, self.certificate, signature)
        return record

    def receive_snapshot_sig(
        self, manifest: SnapshotManifest, certificate: Certificate, signature: bytes
    ) -> None:
        """Gossip handler: accumulate another peer's manifest signature.

        Reads the stored manifest and signatures, never the payload rows,
        and writes one signature row — plus, when it completes a quorum,
        the seal marker, in the same batch.
        """
        if self.crashed:
            return
        if not self.channel.msp_registry.validate_certificate(certificate):
            return
        signing = manifest.signing_bytes()
        if not certificate.public_key.verify(signing, signature):
            return
        height = manifest.height
        stored = self.snapshots.manifest_bytes(height)
        if stored is None:
            if height > self.ledger.height:
                self._pending_snapshot_sigs.setdefault(height, []).append(
                    (certificate, signature, manifest)
                )
            return
        if stored != signing:
            # Divergent state at the same height: never co-sign it.
            return
        if self.snapshots.has_signature(height, certificate.enrollment_id):
            return
        sealing = not self.snapshots.is_sealed(height) and self._quorum(
            self.snapshots.certificates(height) + [certificate]
        )
        batch = WriteBatch()
        self.snapshots.stage_signature(batch, height, certificate, signature, seal=sealing)
        self.ledger.commit_batch(batch)
        if sealing:
            self._sealed(manifest)

    def _quorum(self, certificates: list) -> bool:
        return self.channel.evaluator().evaluate(SNAPSHOT_POLICY, certificates)

    def _sealed(self, manifest: SnapshotManifest) -> None:
        """After a seal commits: prune below it, tell the listeners."""
        if self.prune_enabled:
            self.ledger.blockchain.prune_to(manifest.height)
        for listener in self._snapshot_seal_listeners:
            listener(self, manifest)

    def latest_sealed_snapshot(self) -> Optional[SnapshotRecord]:
        return self.snapshots.latest_sealed()

    def sealed_snapshot_height(self) -> Optional[int]:
        """Height of :meth:`latest_sealed_snapshot`, without reading it."""
        return self.snapshots.latest_sealed_height()

    def serve_snapshot(self, msp_id: str) -> Optional[SnapshotPackage]:
        """Serve the latest sealed snapshot, filtered for ``msp_id``."""
        record = self.snapshots.latest_sealed()
        if record is None:
            return None
        return filter_package_for(record, self.channel, msp_id)

    # -- reconciliation ----------------------------------------------------------
    def serve_private_batch(
        self, requests: tuple[tuple[str, str, str], ...]
    ) -> list[tuple[str, str, str, PrivateCollectionWrites]]:
        """Serve a batched multi-gap pull: every requested rwset held here."""
        responses = []
        for tx_id, namespace, collection in requests:
            writes = self.ledger.committed_private_rwsets.get(
                (tx_id, namespace, collection)
            )
            if writes is not None:
                responses.append((tx_id, namespace, collection, writes))
        return responses

    # -- queries (used by applications, tests and the leakage analysis) -------
    def query_public(self, chaincode_id: str, key: str) -> Optional[bytes]:
        entry = self.ledger.world_state.get(chaincode_id, key)
        return entry.value if entry else None

    def query_private(self, chaincode_id: str, collection: str, key: str) -> Optional[bytes]:
        entry = self.ledger.private_data.get(chaincode_id, collection, key)
        return entry.value if entry else None

    def query_private_hash(self, chaincode_id: str, collection: str, key: str) -> Optional[bytes]:
        entry = self.ledger.private_hashes.get_by_key(chaincode_id, collection, key)
        return entry.value_hash if entry else None

    def transaction_status(self, tx_id: str) -> Optional[ValidationCode]:
        return self.ledger.blockchain.transaction_flag(tx_id)

    # -- commit observability (throughput benches, runtime assertions) --------
    @property
    def blocks_committed(self) -> int:
        return self._committer.blocks_committed

    @property
    def valid_tx_count(self) -> int:
        return self._committer.valid_tx_count

    @property
    def invalid_tx_count(self) -> int:
        return self._committer.invalid_tx_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerNode({self.name!r}, features={self.features.describe()!r})"
