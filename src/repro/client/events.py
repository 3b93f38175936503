"""Client-side event services: commit notifications and chaincode events.

Step 21 of Fig. 2: "the client gets a notification about the status of
the transaction".  An :class:`EventHub` subscribes to one peer's block
commits and surfaces:

* per-transaction commit events (tx id + validation code), and
* chaincode events of committed valid transactions.

Note the privacy implication (the event analogue of Use Case 3): *any*
application connected to *any* peer of the channel — including peers of
PDC non-member organizations — receives chaincode events in plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.ledger.block import ValidatedBlock
from repro.protocol.transaction import ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.peer.node import PeerNode


@dataclass(frozen=True)
class CommitEvent:
    """One transaction's commit outcome."""

    tx_id: str
    block_number: int
    status: ValidationCode
    chaincode_id: str


@dataclass(frozen=True)
class ChaincodeEventRecord:
    """One chaincode event from a committed VALID transaction."""

    tx_id: str
    block_number: int
    chaincode_id: str
    event_name: str
    payload: bytes


class EventHub:
    """Collects commit + chaincode events from one peer.

    Events arriving before :meth:`connect` are not replayed — mirroring a
    live event subscription.  Use ``replay_from_genesis=True`` to backfill
    from the peer's existing chain first.
    """

    def __init__(self, peer: "PeerNode", replay_from_genesis: bool = False) -> None:
        self._peer = peer
        self.commit_events: list[CommitEvent] = []
        self.chaincode_events: list[ChaincodeEventRecord] = []
        if replay_from_genesis:
            for validated in peer.ledger.blockchain.blocks():
                self._ingest(validated)
        peer.on_commit(lambda _peer, validated: self._ingest(validated))

    def _ingest(self, validated: ValidatedBlock) -> None:
        for tx, flag in zip(validated.block.transactions, validated.flags):
            commit = CommitEvent(
                tx_id=tx.tx_id,
                block_number=validated.number,
                status=flag,
                chaincode_id=tx.chaincode_id,
            )
            self.commit_events.append(commit)
            if flag is ValidationCode.VALID and tx.payload.event is not None:
                self.chaincode_events.append(
                    ChaincodeEventRecord(
                        tx_id=tx.tx_id,
                        block_number=validated.number,
                        chaincode_id=tx.chaincode_id,
                        event_name=tx.payload.event.name,
                        payload=tx.payload.event.payload,
                    )
                )

    def status_of(self, tx_id: str) -> Optional[ValidationCode]:
        for event in self.commit_events:
            if event.tx_id == tx_id:
                return event.status
        return None

    def events_named(self, event_name: str) -> list[ChaincodeEventRecord]:
        return [e for e in self.chaincode_events if e.event_name == event_name]
