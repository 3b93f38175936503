"""Assembled transactions and validation codes.

A :class:`TransactionEnvelope` is what the client submits to ordering: a
header identifying channel/chaincode/creator, the proposal-response
payload agreed on by the endorsers, the list of endorsements, and the
client's signature over all of it (Fig. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.common.serialization import (
    Memoized,
    canonical_bytes,
    from_canonical_bytes,
    memo_epoch,
)
from repro.identity.identity import Certificate
from repro.protocol.response import Endorsement, ProposalResponsePayload


class ValidationCode(str, enum.Enum):
    """Per-transaction validity flags recorded in block metadata."""

    VALID = "VALID"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    PHANTOM_READ_CONFLICT = "PHANTOM_READ_CONFLICT"
    BAD_CREATOR_SIGNATURE = "BAD_CREATOR_SIGNATURE"
    BAD_RESPONSE_STATUS = "BAD_RESPONSE_STATUS"
    DUPLICATE_TXID = "DUPLICATE_TXID"
    INVALID_OTHER = "INVALID_OTHER"
    # Assigned by the conflict-aware ordering service (``reorder=True``),
    # never by a validating peer: the transaction was dropped before block
    # inclusion because its reads were provably stale, so this code never
    # appears in block metadata — only in client-facing submit results.
    ORDERER_EARLY_ABORT = "ORDERER_EARLY_ABORT"

@dataclass(frozen=True)
class TransactionEnvelope(Memoized):
    """A signed, endorsed transaction ready for ordering."""

    tx_id: str
    channel_id: str
    chaincode_id: str
    creator: Certificate
    payload: ProposalResponsePayload
    endorsements: tuple[Endorsement, ...]
    signature: bytes
    # The chaincode input (Fig. 3 "transaction proposal"): committed with
    # the transaction, and therefore readable by every peer.  The
    # *transient* map is deliberately NOT part of an envelope.
    function: str = ""
    args: tuple[str, ...] = ()

    def signed_bytes(self) -> bytes:
        """The content covered by the creator's signature.

        Memoized on the (frozen) envelope: every peer re-serializes the
        same envelope to check the creator signature, so the canonical
        bytes are computed once per envelope per process.  The creator,
        payload and endorsements hold their own encodings, which are
        spliced in rather than re-encoded.
        """
        return self._memo("_serialized", lambda: canonical_bytes(
            {
                "tx_id": self.tx_id,
                "channel_id": self.channel_id,
                "chaincode_id": self.chaincode_id,
                "creator": self.creator,
                "payload": self.payload,
                "endorsements": self.endorsements,
                "function": self.function,
                "args": self.args,
            }
        ))

    @classmethod
    def from_signed_bytes(cls, signed: bytes, signature: bytes) -> "TransactionEnvelope":
        """Inverse of :meth:`signed_bytes` under ``signature``.

        The envelope keeps ``signed`` as its encoding memo, so a decoded
        envelope hashes and verifies over the very bytes it came from.
        """
        wire = from_canonical_bytes(signed)
        envelope = cls(
            tx_id=wire["tx_id"],
            channel_id=wire["channel_id"],
            chaincode_id=wire["chaincode_id"],
            creator=Certificate.from_wire(wire["creator"]),
            payload=ProposalResponsePayload.from_wire(wire["payload"]),
            endorsements=tuple(Endorsement.from_wire(e) for e in wire["endorsements"]),
            signature=signature,
            function=wire["function"],
            args=tuple(wire["args"]),
        )
        object.__setattr__(envelope, "_serialized", (memo_epoch(), signed))
        return envelope

    def with_signature(self, signature: bytes) -> "TransactionEnvelope":
        """This envelope under ``signature``, keeping the encoding memo.

        The signature is not part of :meth:`signed_bytes`, so what was
        encoded to be signed is what every validator will ask for.
        """
        signed = replace(self, signature=signature)
        object.__setattr__(signed, "_serialized", getattr(self, "_serialized", None))
        return signed

    def verify_creator_signature(self) -> bool:
        return self.creator.public_key.verify(self.signed_bytes(), self.signature)
