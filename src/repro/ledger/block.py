"""Blocks: header, transaction list, metadata (Fig. 3).

The orderer produces an *unvalidated* block — header plus envelopes.  Each
committing peer then validates every transaction independently and records
the resulting flag vector in the block metadata before appending the block
to its chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.hashing import chain_hash, sha256
from repro.common.serialization import Memoized
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage.codec import pack_obj, unpack_obj

GENESIS_PREV_HASH = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Number, previous block hash, and hash over the block's data."""

    number: int
    prev_hash: bytes
    data_hash: bytes

    def block_hash(self) -> bytes:
        """The hash the *next* block's ``prev_hash`` must equal."""
        return chain_hash(self.prev_hash, self.data_hash)


@dataclass(frozen=True)
class Block(Memoized):
    """An ordered block as distributed by the ordering service."""

    header: BlockHeader
    transactions: tuple[TransactionEnvelope, ...]

    def stored_transactions(self) -> bytes:
        """The transaction list's storage encoding, made once per process.

        Every peer stores the block the orderer cut — in this in-process
        simulator the same object — so the one encoding is shared by all
        of their block rows (and by a re-validating oracle's).  Not
        epoch-stamped: it is not a canonical encoding, only the pickled
        fields, and a block never changes.
        """
        stored = self.__dict__.get("_stored")
        if stored is None:
            stored = self.__dict__["_stored"] = pack_obj(self.transactions)
        return stored

    @classmethod
    def from_storage(cls, header: BlockHeader, stored: bytes) -> "Block":
        """Rebuild a block from :meth:`stored_transactions` bytes."""
        block = cls(header=header, transactions=unpack_obj(stored))
        block.__dict__["_stored"] = stored
        return block

    @staticmethod
    def data_hash_of(transactions: tuple[TransactionEnvelope, ...]) -> bytes:
        """SHA-256 over one 32-byte leaf per transaction, in block order.

        A leaf is ``SHA-256(SHA-256(signed_bytes) || signature)``: the
        envelope's memoized signed bytes cover every wire field but the
        signature, and the fixed-width prefix keeps the pair unambiguous
        — so hashing a block re-encodes nothing an envelope already holds.
        """
        return sha256(
            b"".join(sha256(sha256(tx.signed_bytes()) + tx.signature) for tx in transactions)
        )

    @classmethod
    def create(
        cls, number: int, prev_hash: bytes, transactions: tuple[TransactionEnvelope, ...]
    ) -> "Block":
        header = BlockHeader(
            number=number, prev_hash=prev_hash, data_hash=cls.data_hash_of(transactions)
        )
        return cls(header=header, transactions=transactions)

    def verify_data_hash(self) -> bool:
        return self.header.data_hash == self.data_hash_of(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)


@dataclass
class ValidatedBlock:
    """A block plus the flag vector a peer computed during validation."""

    block: Block
    flags: list[ValidationCode] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.flags) not in (0, len(self.block.transactions)):
            raise ValueError("flag vector length must match transaction count")

    @property
    def number(self) -> int:
        return self.block.header.number

    def valid_transactions(self) -> list[TransactionEnvelope]:
        return [
            tx
            for tx, flag in zip(self.block.transactions, self.flags)
            if flag is ValidationCode.VALID
        ]

    def flag_of(self, tx_id: str) -> ValidationCode:
        for tx, flag in zip(self.block.transactions, self.flags):
            if tx.tx_id == tx_id:
                return flag
        raise KeyError(tx_id)
