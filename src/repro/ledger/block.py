"""Blocks: header, transaction list, metadata (Fig. 3).

The orderer produces an *unvalidated* block — header plus envelopes.  Each
committing peer then validates every transaction independently and records
the resulting flag vector in the block metadata before appending the block
to its chain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.common.hashing import chain_hash, sha256
from repro.common.serialization import Memoized
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage.codec import CodecError, Reader

GENESIS_PREV_HASH = b"\x00" * 32

#: Magic prefix of a block's stored transaction list.
TXS_MAGIC = b"\x01RTX1"

_U32 = struct.Struct("<I")


def _data_hash(signed: Iterable[tuple[bytes, bytes]]) -> bytes:
    return sha256(b"".join(sha256(sha256(body) + signature) for body, signature in signed))


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

        ``TXS_MAGIC | count | (len | signed bytes | len | signature)...``:
        each envelope as the bytes :meth:`data_hash_of` hashed, so what a
        peer stores is what the orderer hashed.  Every peer stores the
        block the orderer cut — in this in-process simulator the same
        object — so every peer's backend holds this one ``bytes`` object.
        Not epoch-stamped: canonical bytes never change, nor does a block.
        """
        stored = self.__dict__.get("_stored")
        if stored is None:
            out = [TXS_MAGIC, _U32.pack(len(self.transactions))]
            for tx in self.transactions:
                signed = tx.signed_bytes()
                out += (_U32.pack(len(signed)), signed, _U32.pack(len(tx.signature)), tx.signature)
            stored = self.__dict__["_stored"] = b"".join(out)
        return stored

    @classmethod
    def from_storage(cls, header: BlockHeader, stored: bytes) -> "Block":
        """Rebuild a block from :meth:`stored_transactions` bytes.

        The bytes must hash to ``header.data_hash`` before any envelope is
        decoded; every failure is a :class:`CodecError`.
        """
        if not stored.startswith(TXS_MAGIC):
            raise CodecError("transaction list lacks its framing magic")
        reader = Reader(stored, len(TXS_MAGIC))
        signed = [(reader.take(reader.u32()), reader.take(reader.u32()))
                  for _ in range(reader.u32())]
        if not reader.done():
            raise CodecError("trailing bytes after the framed transaction list")
        if _data_hash(signed) != header.data_hash:
            raise CodecError(f"block {header.number}'s transactions miss its data hash")
        try:
            transactions = tuple(
                TransactionEnvelope.from_signed_bytes(body, signature)
                for body, signature in signed
            )
        except (TypeError, KeyError, ValueError, AttributeError, RecursionError) as exc:
            raise CodecError(f"malformed envelope in block {header.number}: {exc!r}") from exc
        block = cls(header=header, transactions=transactions)
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
        return _data_hash((tx.signed_bytes(), tx.signature) for tx in transactions)

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
