"""Proposal responses and endorsements (Fig. 3, "proposal response").

The *proposal-response payload* is the unit endorsers sign and the unit
that ends up inside the committed transaction.  It contains:

* the hash of the proposal it answers,
* the read/write set (``results``) — hashed for private collections,
* the chaincode :class:`ChaincodeResponse` with its ``status``,
  ``message`` and ``payload`` fields.

Use Case 3 of the paper lives here: the ``payload`` field is plaintext
even for PDC transactions, so whatever a chaincode function returns is
recorded on-chain in the clear.  New Feature 2 changes *which* payload
variant gets signed and committed (the SHA-256 hash of the original),
while the client still receives the original out-of-band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.common.hashing import sha256
from repro.common.serialization import Memoized, canonical_bytes
from repro.identity.identity import Certificate

if TYPE_CHECKING:  # pragma: no cover - break the ledger<->chaincode import cycle
    from repro.chaincode.rwset import TxReadWriteSet

STATUS_OK = 200
STATUS_ERROR = 500


@dataclass(frozen=True)
class ChaincodeResponse:
    """The ``(status, message, payload)`` triple returned by chaincode."""

    status: int = STATUS_OK
    message: str = ""
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_wire(self) -> dict:
        return {"status": self.status, "message": self.message, "payload": self.payload}

    @classmethod
    def from_wire(cls, wire: dict) -> "ChaincodeResponse":
        return cls(status=wire["status"], message=wire["message"], payload=wire["payload"])

    def with_hashed_payload(self) -> "ChaincodeResponse":
        """The New Feature 2 variant: payload replaced by its SHA-256 hash."""
        return replace(self, payload=sha256(self.payload))


@dataclass(frozen=True)
class ChaincodeEvent:
    """A chaincode event: committed with the transaction, plaintext.

    Events are delivered to every subscribed application on every peer —
    one more channel (beyond the ``payload`` field of Use Case 3) through
    which sloppy chaincode can expose private data to non-members.
    """

    name: str
    payload: bytes = b""

    def to_wire(self) -> dict:
        return {"name": self.name, "payload": self.payload}

    @classmethod
    def from_wire(cls, wire: dict) -> "ChaincodeEvent":
        return cls(name=wire["name"], payload=wire["payload"])

    def with_hashed_payload(self) -> "ChaincodeEvent":
        return ChaincodeEvent(name=self.name, payload=sha256(self.payload))


@dataclass(frozen=True)
class ProposalResponsePayload(Memoized):
    """The signed content of an endorsement; stored verbatim in the tx."""

    proposal_hash: bytes
    results: "TxReadWriteSet"
    response: ChaincodeResponse
    event: Optional[ChaincodeEvent] = None

    def to_wire(self) -> dict:
        return {
            "proposal_hash": self.proposal_hash,
            "results": self.results.to_wire(),
            "response": self.response.to_wire(),
            "event": self.event.to_wire() if self.event else None,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ProposalResponsePayload":
        """Inverse of :meth:`to_wire`."""
        from repro.chaincode.rwset import TxReadWriteSet  # the cycle noted above

        event = wire["event"]
        return cls(
            proposal_hash=wire["proposal_hash"],
            results=TxReadWriteSet.from_wire(wire["results"]),
            response=ChaincodeResponse.from_wire(wire["response"]),
            event=ChaincodeEvent.from_wire(event) if event is not None else None,
        )

    def bytes(self) -> bytes:
        """The canonical bytes endorsers sign (``wire_bytes``)."""
        return self.wire_bytes()

    def wire_bytes(self) -> bytes:
        # Canonical serialization is the single hottest allocation of
        # block validation: every endorsement check of every peer hashes
        # these bytes.  The payload is deeply frozen, so the serialized
        # form is computed once and stashed on the instance — the 2nd..Nth
        # check (and the 2nd..Nth *peer*, which sees the same object in
        # this in-process simulator) reuses it, and an envelope that
        # carries the payload splices it rather than re-encoding it.
        # Epoch-stamped so ``crypto.clear_caches`` invalidates it.
        return self._memo("_serialized", lambda: canonical_bytes(self.to_wire()))

    def with_hashed_payload(self) -> "ProposalResponsePayload":
        """New Feature 2, generalized: hash every plaintext channel —
        the response payload *and* the chaincode event payload."""
        hashed_event = self.event.with_hashed_payload() if self.event else None
        return replace(
            self, response=self.response.with_hashed_payload(), event=hashed_event
        )


@dataclass(frozen=True)
class Endorsement(Memoized):
    """An endorser's certificate and its signature over the payload bytes."""

    endorser: Certificate
    signature: bytes

    def verify(self, payload_bytes: bytes) -> bool:
        return self.endorser.public_key.verify(payload_bytes, self.signature)

    def to_wire(self) -> dict:
        return {"endorser": self.endorser.to_wire(), "signature": self.signature}

    @classmethod
    def from_wire(cls, wire: dict) -> "Endorsement":
        return cls(endorser=Certificate.from_wire(wire["endorser"]), signature=wire["signature"])

    def wire_bytes(self) -> bytes:
        """``canonical_bytes(self.to_wire())``, the certificate spliced in."""
        return self._memo("_wire", lambda: canonical_bytes(
            {"endorser": self.endorser, "signature": self.signature}
        ))


@dataclass(frozen=True)
class ProposalResponse:
    """What an endorser returns to the client.

    ``payload`` is the signed variant that must go into the transaction;
    ``client_response`` is what the application reads.  In the original
    framework the two carry the same chaincode response; under New
    Feature 2 the signed variant has a hashed payload while
    ``client_response`` keeps the original plaintext (Fig. 4).
    """

    payload: ProposalResponsePayload
    endorsement: Endorsement
    client_response: ChaincodeResponse

    @property
    def ok(self) -> bool:
        return self.payload.response.ok
