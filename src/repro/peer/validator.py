"""Transaction validation: the proof-of-policy (PoP) consensus checks.

Every committing peer validates each transaction of a delivered block
independently, through the two checks the paper names (Section II-B3):

1. **Endorsement policy check** — are there enough *valid* endorsement
   signatures from identities satisfying the applicable policy?
2. **Version conflict check (MVCC)** — do the versions recorded in the
   read set still match the committed state?

The policy-selection rules are where the paper's Use Case 2 lives, and
they reproduce Fabric's ``validator_keylevel.go`` behaviour:

* collection *writes* are validated against the collection-level policy
  when one is defined (otherwise the chaincode-level policy);
* **read-only transactions are always validated against the
  chaincode-level policy** — even when a collection-level policy exists —
  which is what lets forged PDC reads through;
* **New Feature 1** adds the collection-level policy check for collections
  *read* by a read-only transaction, closing that hole.

The supplemental defense filters endorsements from PDC non-member orgs
before evaluating any policy of a PDC transaction.

One rule loop, :meth:`Validator.flags_for`, computes every flag: a
peer's block validation behind the shared VSCC memo, and the
conflict-aware orderer's predictions.  Each signature and certificate
is looked up as a rule reaches it, through the process-wide verdict
memo and the MSP registry's cache; nothing is settled ahead of the
rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.chaincode.rwset import RangeQueryInfo
from repro.common.tracing import PERF
from repro.core.defense.features import FrameworkFeatures
from repro.identity.identity import Certificate
from repro.ledger.block import Block
from repro.ledger.ledger import PeerLedger
from repro.ledger.version import Version
from repro.protocol.transaction import TransactionEnvelope, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig


# The shared VSCC memo: per channel object, {(block hash, features) ->
# flag tuple}.  Validation is a deterministic function of (block bytes,
# channel policies, feature flags, pre-block ledger state); the block
# hash pins the whole chain prefix — and therefore the pre-block state —
# while the channel object pins the policies and MSP roots, so the
# 2nd..Nth peer validating the same delivered block reuses the first
# peer's flags without re-running any crypto.  Stashing the memo on the
# channel *instance* (every peer of a network shares one ChannelConfig)
# means distinct networks never share entries even when their blocks are
# byte-identical (seed replays rebuild the channel from scratch), and the
# memo's lifetime is exactly the channel's.
_SHARED_VSCC_MAX_BLOCKS = 65_536


def _shared_memo_for(channel: "ChannelConfig") -> dict:
    memo = getattr(channel, "_vscc_memo", None)
    if memo is None:
        memo = {}
        channel._vscc_memo = memo  # type: ignore[attr-defined]
    return memo


class Validator:
    """VSCC + MVCC validation for one peer on one channel."""

    def __init__(
        self,
        channel: "ChannelConfig",
        features: FrameworkFeatures,
        use_shared_memo: bool = True,
    ) -> None:
        self._channel = channel
        self._features = features
        self._evaluator = channel.evaluator()
        # False is for oracles: validate afresh, never read or feed the memo.
        self._use_shared_memo = use_shared_memo

    # -- block-level entry point ------------------------------------------
    def validate_block(self, block: Block, ledger: PeerLedger) -> list[ValidationCode]:
        """Validate every transaction, honouring intra-block write order.

        Later transactions in the same block see the keys written by
        earlier *valid* transactions as conflicting (standard Fabric MVCC
        within a block).

        Fast path: if the *shared VSCC memo* holds the flag vector another
        peer already computed for this exact block (same channel, same
        feature flags — the block hash pins the chain prefix and hence the
        pre-block state), it is returned without re-running any checks.
        Otherwise :meth:`flags_for` computes it: each signature is
        looked up once, by the rule that needs it.
        """
        memo: Optional[dict] = None
        memo_key = None
        if self._use_shared_memo:
            memo = _shared_memo_for(self._channel)
            memo_key = (block.header.block_hash(), self._features)
            hit = memo.get(memo_key)
            if hit is not None:
                PERF.vscc_memo_hits += 1
                return list(hit)
        flags = self.flags_for(block.transactions, ledger)
        if memo is not None:
            PERF.vscc_memo_misses += 1
            if len(memo) >= _SHARED_VSCC_MAX_BLOCKS:  # pragma: no cover - backstop
                memo.clear()
            memo[memo_key] = tuple(flags)
        return flags

    def flags_for(
        self, transactions: Iterable[TransactionEnvelope], ledger: PeerLedger
    ) -> list[ValidationCode]:
        """The flag each transaction gets as one block on top of ``ledger``.

        The rule loop :meth:`validate_block` runs behind its memo, and the
        only place a flag is computed; ``ledger`` is only read.  Any object
        answering the same five reads will do —
        ``blockchain.has_transaction``, ``world_state.get_version`` /
        ``get_validation_parameter`` / ``items`` and
        ``private_hashes.get_version`` — which is how the conflict-aware
        orderer predicts flags over its shadow state.
        """
        flags: list[ValidationCode] = []
        block_writes: set[tuple[str, str]] = set()
        block_private_writes: set[tuple[str, str, bytes]] = set()
        seen_tx_ids: set[str] = set()

        for tx in transactions:
            flag = self._validate_transaction(
                tx, ledger, block_writes, block_private_writes, seen_tx_ids
            )
            flags.append(flag)
            seen_tx_ids.add(tx.tx_id)
            if flag is ValidationCode.VALID:
                for ns in tx.payload.results.namespaces:
                    for write in ns.writes:
                        block_writes.add((ns.namespace, write.key))
                    for col in ns.collections:
                        for hashed_write in col.hashed_writes:
                            block_private_writes.add(
                                (ns.namespace, col.collection, hashed_write.key_hash)
                            )
        return flags

    # -- per-transaction pipeline ------------------------------------------
    def _validate_transaction(
        self,
        tx: TransactionEnvelope,
        ledger: PeerLedger,
        block_writes: set[tuple[str, str]],
        block_private_writes: set[tuple[str, str, bytes]],
        seen_tx_ids: set[str],
    ) -> ValidationCode:
        if tx.tx_id in seen_tx_ids or ledger.blockchain.has_transaction(tx.tx_id):
            return ValidationCode.DUPLICATE_TXID
        if tx.channel_id != self._channel.channel_id:
            return ValidationCode.INVALID_OTHER
        if not self._channel.chaincodes.get(tx.chaincode_id):
            return ValidationCode.INVALID_OTHER
        if not self._channel.msp_registry.validate_certificate(tx.creator):
            return ValidationCode.BAD_CREATOR_SIGNATURE
        if not tx.verify_creator_signature():
            return ValidationCode.BAD_CREATOR_SIGNATURE
        if not tx.payload.response.ok:
            return ValidationCode.BAD_RESPONSE_STATUS
        if not self._check_endorsement_policies(tx, ledger):
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        if not self._check_versions(tx, ledger, block_writes, block_private_writes):
            return ValidationCode.MVCC_READ_CONFLICT
        if not self._check_range_queries(tx, ledger, block_writes):
            return ValidationCode.PHANTOM_READ_CONFLICT
        return ValidationCode.VALID

    # -- check 1: endorsement policy ---------------------------------------
    def _valid_signers(self, tx: TransactionEnvelope) -> list[Certificate]:
        """Certificates whose endorsement signature verifies over the payload.

        Invalid signatures are dropped rather than failing the transaction
        — they simply do not count towards any policy, as in Fabric.
        """
        payload_bytes = tx.payload.bytes()
        signers = []
        for endorsement in tx.endorsements:
            if not self._channel.msp_registry.validate_certificate(endorsement.endorser):
                continue
            if endorsement.verify(payload_bytes):
                signers.append(endorsement.endorser)
        return signers

    def _check_endorsement_policies(self, tx: TransactionEnvelope, ledger: PeerLedger) -> bool:
        definition = self._channel.chaincode(tx.chaincode_id)
        results = tx.payload.results
        signers = self._valid_signers(tx)

        touched = results.collections_touched()
        if touched and self._features.filter_nonmember_endorsements:
            # Supplemental defense: a PDC transaction only counts
            # endorsements from organizations that are members of every
            # collection it touches.
            member_orgs: frozenset[str] | None = None
            for namespace, collection_name in touched:
                config = self._channel.collection(namespace, collection_name)
                orgs = config.member_orgs()
                member_orgs = orgs if member_orgs is None else member_orgs & orgs
            signers = [c for c in signers if c.msp_id in (member_orgs or set())]

        chaincode_policy_needed = False
        extra_policies: list[str] = []

        if results.is_read_only:
            # The vulnerable rule: read-only transactions use the
            # chaincode-level policy, full stop (Use Case 2) — neither
            # collection-level nor key-level policies of the keys *read*
            # are consulted.
            chaincode_policy_needed = True
            if self._features.collection_policy_on_reads:
                # New Feature 1: also apply collection-level policies to
                # the collections this read-only transaction *read*.
                for namespace, collection_name in sorted(touched):
                    config = self._channel.collection(namespace, collection_name)
                    if config.endorsement_policy is not None:
                        extra_policies.append(config.endorsement_policy)
        else:
            for ns in results.namespaces:
                # Public writes: governed by the key-level policy when one
                # is committed for the key (state-based endorsement),
                # otherwise by the chaincode-level policy.
                for write in ns.writes:
                    key_policy = ledger.world_state.get_validation_parameter(
                        ns.namespace, write.key
                    )
                    if key_policy is not None:
                        extra_policies.append(key_policy.decode("utf-8"))
                    else:
                        chaincode_policy_needed = True
                # Changing a key's policy requires satisfying its current one.
                for meta in ns.metadata_writes:
                    key_policy = ledger.world_state.get_validation_parameter(
                        ns.namespace, meta.key
                    )
                    if key_policy is not None:
                        extra_policies.append(key_policy.decode("utf-8"))
                    else:
                        chaincode_policy_needed = True
                # Collection writes: collection-level policy or fallback.
                for col in ns.collections:
                    if not col.hashed_writes:
                        continue
                    config = self._channel.collection(ns.namespace, col.collection)
                    if config.endorsement_policy is not None:
                        extra_policies.append(config.endorsement_policy)
                    else:
                        chaincode_policy_needed = True

        if chaincode_policy_needed and not self._evaluator.evaluate(
            definition.endorsement_policy, signers
        ):
            return False
        for policy_text in extra_policies:
            if not self._evaluator.evaluate(policy_text, signers):
                return False
        return True

    # -- check 2: version conflicts (MVCC) -----------------------------------
    def _check_versions(
        self,
        tx: TransactionEnvelope,
        ledger: PeerLedger,
        block_writes: set[tuple[str, str]],
        block_private_writes: set[tuple[str, str, bytes]],
    ) -> bool:
        """The version conflict check of the PoP protocol.

        Note what this check does **not** do: it never re-executes the
        chaincode and never inspects the response payload — which is why
        a fabricated payload with a genuine ``(key, version)`` read set
        sails through (Section IV-A1).
        """
        for ns in tx.payload.results.namespaces:
            for read in ns.reads:
                if (ns.namespace, read.key) in block_writes:
                    return False
                committed: Version | None = ledger.world_state.get_version(ns.namespace, read.key)
                if committed != read.version:
                    return False
            for col in ns.collections:
                for hashed_read in col.hashed_reads:
                    key = (ns.namespace, col.collection, hashed_read.key_hash)
                    if key in block_private_writes:
                        return False
                    committed_private = ledger.private_hashes.get_version(
                        ns.namespace, col.collection, hashed_read.key_hash
                    )
                    if committed_private != hashed_read.version:
                        return False
        return True

    # -- phantom reads: range-query re-execution ------------------------------
    def _check_range_queries(
        self,
        tx: TransactionEnvelope,
        ledger: PeerLedger,
        block_writes: set[tuple[str, str]],
    ) -> bool:
        """Re-scan each recorded range against current state and compare.

        Any insertion, deletion or version change within the range since
        simulation — including by earlier transactions in this block — is
        a phantom read.
        """
        return all(
            range_fresh(ns.namespace, query, ledger.world_state, block_writes)
            for ns in tx.payload.results.namespaces
            for query in ns.range_queries
        )


def in_range(query: RangeQueryInfo, key: str) -> bool:
    """Is ``key`` inside the range query's ``[start_key, end_key)``?"""
    return key >= query.start_key and (not query.end_key or key < query.end_key)


def range_fresh(
    namespace: str, query: RangeQueryInfo, world_state, block_writes: Iterable
) -> bool:
    """Does one recorded range query still read what it read at simulation?

    The range is re-scanned in ``world_state`` and compared with the
    recorded ``(key, version)`` reads; a key in range among
    ``block_writes`` — inserted, updated or deleted by an earlier valid
    transaction of the same block — is a phantom too.
    """
    current = [
        (key, entry.version)
        for key, entry in world_state.items(namespace)
        if in_range(query, key)
    ]
    if current != [(r.key, r.version) for r in query.reads]:
        return False
    return not any(
        write_ns == namespace and in_range(query, key)
        for write_ns, key in block_writes
    )

