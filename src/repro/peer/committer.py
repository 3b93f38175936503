"""The commit half of a peer (validation phase, steps 14-20 of Fig. 2).

After validation, the committer applies the write sets of *valid*
transactions to the ledger:

* public writes update the world state at every peer;
* hashed private writes update the hash store at every peer;
* the original private writes are applied **only at member peers, and
  only where the plaintext is available and matches the on-chain
  hashes** — a member obtains it from its transient store (filled by its
  own endorsement or by gossip) and verifies it first (Section III-A2).
  A non-member commits the hashes alone, even one that endorsed the tx.

If a member peer cannot obtain the plaintext, the block still commits and
the gap is recorded for later reconciliation — Fabric behaves the same.

The whole block — public writes, hash writes, plaintext writes, missing
records, transient-store cleanup, BTL purges and the block itself — is
staged into **one atomic write batch** and committed in a single backend
operation.  A peer that crashes mid-commit recovers to the block
boundary: either the entire block applied or none of it did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ledger.block import Block, ValidatedBlock
from repro.ledger.ledger import MissingPrivateData, PeerLedger
from repro.ledger.version import Version
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage import WriteBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig


class Committer:
    """Applies validated blocks to one peer's ledger."""

    def __init__(self, channel: "ChannelConfig", local_msp_id: str) -> None:
        self._channel = channel
        self._local_msp_id = local_msp_id
        # Observability counters (throughput benches, runtime assertions).
        # Updated only after the block's batch commits durably.
        self.blocks_committed = 0
        self.valid_tx_count = 0
        self.invalid_tx_count = 0

    def commit_block(
        self, block: Block, flags: list[ValidationCode], ledger: PeerLedger
    ) -> ValidatedBlock:
        """Stage all valid transactions plus the block, commit atomically."""
        validated = ValidatedBlock(block=block, flags=list(flags))
        batch = ledger.new_batch()
        valid_count = invalid_count = 0
        for tx_num, (tx, flag) in enumerate(zip(block.transactions, flags)):
            if flag is ValidationCode.VALID:
                valid_count += 1
                self._apply_transaction(
                    tx, Version(block.header.number, tx_num), ledger, batch
                )
            else:
                invalid_count += 1
            ledger.transient_store.remove_transaction(tx.tx_id, batch=batch)
        ledger.blockchain.append(validated, batch=batch)
        new_height = block.header.number + 1
        ledger.transient_store.purge_below(new_height, batch=batch)
        ledger.purge_expired_private(new_height, batch=batch)
        ledger.commit_batch(batch)
        self.blocks_committed += 1
        self.valid_tx_count += valid_count
        self.invalid_tx_count += invalid_count
        return validated

    def _apply_transaction(
        self,
        tx: TransactionEnvelope,
        version: Version,
        ledger: PeerLedger,
        batch: WriteBatch,
    ) -> None:
        for ns in tx.payload.results.namespaces:
            for write in ns.writes:
                if write.is_delete:
                    ledger.world_state.delete(ns.namespace, write.key, batch=batch)
                else:
                    ledger.world_state.put(
                        ns.namespace, write.key, write.value or b"", version, batch=batch
                    )
            for meta in ns.metadata_writes:
                ledger.world_state.set_metadata(
                    ns.namespace, meta.key, meta.name, meta.value, batch=batch
                )
            for col in ns.collections:
                if col.hashed_writes:
                    self._apply_collection_writes(tx, ns.namespace, col, version, ledger, batch)

    def _apply_collection_writes(
        self, tx, namespace, hashed_col, version, ledger: PeerLedger, batch: WriteBatch
    ):
        # 1. Hashed writes land at every peer.
        for hashed_write in hashed_col.hashed_writes:
            if hashed_write.is_delete:
                ledger.private_hashes.delete(
                    namespace, hashed_col.collection, hashed_write.key_hash, batch=batch
                )
            else:
                ledger.private_hashes.put(
                    namespace,
                    hashed_col.collection,
                    hashed_write.key_hash,
                    hashed_write.value_hash or b"",
                    version,
                    batch=batch,
                )

        # 2. Original writes land only at members; a non-member endorser's
        # transient copy goes with the block, unstored.
        config = self._channel.collection(namespace, hashed_col.collection)
        if not config.is_member_org(self._local_msp_id):
            return
        plaintext = ledger.transient_store.get(tx.tx_id, namespace, hashed_col.collection)
        # A member never trusts gossip blindly: the plaintext must match
        # the hashes carried by the (already validated) transaction.
        if plaintext is None or not plaintext.matches_hashes(hashed_col):
            ledger.record_missing(
                MissingPrivateData(
                    tx_id=tx.tx_id,
                    block_num=version.block_num,
                    namespace=namespace,
                    collection=hashed_col.collection,
                ),
                batch=batch,
            )
            return

        ledger.committed_private_rwsets.stage(
            tx.tx_id, namespace, hashed_col.collection, plaintext, batch
        )
        for write in plaintext.writes:
            if write.is_delete:
                ledger.private_data.delete(
                    namespace, hashed_col.collection, write.key, batch=batch
                )
            else:
                ledger.private_data.put(
                    namespace, hashed_col.collection, write.key, write.value or b"",
                    version, batch=batch,
                )
                ledger.note_private_commit(
                    namespace,
                    hashed_col.collection,
                    write.key,
                    version.block_num,
                    btl=config.block_to_live,
                    batch=batch,
                )
