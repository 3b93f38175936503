"""The per-peer block store: an append-only, hash-chained sequence.

Any peer can iterate its own copy of the chain — which is precisely what
the paper's PDC-leakage "attack" does: a non-member peer needs no protocol
violation at all, it simply parses the transactions it already stores
(Section IV-B).

A block persists as two rows under one key (its zero-padded decimal
number, so lexicographic order is commit order), staged in one batch,
and is mirrored in an in-memory list rebuilt on open — reads never hit
the codec.  The integrity checks in :meth:`append` run *before* anything
is staged, so a bad block can never contaminate an atomic batch.  The
*head row* (``blocks``) is ``BLOCK_MAGIC | number | prev hash | data
hash | flags``, sealed with a crc32; :meth:`Blockchain.block_heads` and
:meth:`Blockchain.transaction_flag` read nothing else.  The *tail row*
(``blocks.txs``) is :meth:`Block.stored_transactions`: each envelope's
signed bytes and signature, the bytes the data hash covers, made once
per process — every in-process peer's backend holds the same object.

A chain may carry a *pruned prefix*: blocks below ``genesis_offset`` have
been archived (moved to the cold ``blocks.archive`` namespace, never
deleted) or were never transferred at all for a snapshot-bootstrapped
peer.  Pruning moves head rows only; tail rows stay where they are.  The
prune metadata (a sealed ``struct`` row) records ``(offset, anchor_hash,
archive_base)`` so numbering and hash-chain checks still verify — the
first live block must carry ``prev_hash == anchor_hash``, the hash of the
last pruned block as attested by the snapshot manifest.  ``archive_base``
is the lowest block number the archive actually holds: ``0`` for a peer
that pruned its own full history (archive intact), ``offset`` for a
bootstrapped peer that never saw the prefix.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.common.errors import LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block, BlockHeader, ValidatedBlock
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.storage import KVBackend, MemoryBackend, WriteBatch
from repro.storage.codec import CodecError, Reader, seal, unseal

NS_BLOCKS = "blocks"
NS_BLOCKS_ARCHIVE = "blocks.archive"
NS_BLOCKS_TXS = "blocks.txs"
NS_BLOCKS_META = "blocks.meta"

_PRUNE_META_KEY = "prune"

#: Magic prefixes of a block's head row and of the prune metadata.
BLOCK_MAGIC = b"\x01RBK1"
PRUNE_META_MAGIC = b"\x01RPM1"

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
#: A flag is stored as its position in the enum's declaration order.
_FLAG_CODES = tuple(ValidationCode)
_FLAG_INDEX = {code: index for index, code in enumerate(_FLAG_CODES)}


def _block_key(number: int) -> str:
    return f"{number:016d}"


def pack_block_row(validated: ValidatedBlock) -> bytes:
    """Frame a validated block's head row: ``header | flags``, sealed."""
    header = validated.block.header
    return seal(b"".join((
        BLOCK_MAGIC,
        _U64.pack(header.number),
        _U32.pack(len(header.prev_hash)), header.prev_hash,
        _U32.pack(len(header.data_hash)), header.data_hash,
        _U32.pack(len(validated.flags)),
        bytes(_FLAG_INDEX[flag] for flag in validated.flags),
    )))


def unpack_block_row(raw: bytes) -> tuple[BlockHeader, list[ValidationCode]]:
    """``(header, flags)`` of a head row."""
    if not raw.startswith(BLOCK_MAGIC):
        raise CodecError("block row lacks the block-framing magic")
    reader = Reader(unseal(raw, "block row"), len(BLOCK_MAGIC))
    number = _U64.unpack(reader.take(_U64.size))[0]
    prev_hash = reader.take(reader.u32())
    data_hash = reader.take(reader.u32())
    try:
        flags = [_FLAG_CODES[index] for index in reader.take(reader.u32())]
    except IndexError:
        raise CodecError("block row carries an unknown validation code") from None
    if not reader.done():
        raise CodecError("trailing bytes after the framed block row")
    return BlockHeader(number=number, prev_hash=prev_hash, data_hash=data_hash), flags


def pack_prune_meta(offset: int, anchor: bytes, archive_base: int) -> bytes:
    """Frame the prune metadata ``(offset, anchor hash, archive base)``."""
    return seal(b"".join((
        PRUNE_META_MAGIC, _U64.pack(offset), _U32.pack(len(anchor)), anchor,
        _U64.pack(archive_base),
    )))


def unpack_prune_meta(raw: bytes) -> tuple[int, bytes, int]:
    if not raw.startswith(PRUNE_META_MAGIC):
        raise CodecError("prune metadata lacks its framing magic")
    reader = Reader(unseal(raw, "prune metadata"), len(PRUNE_META_MAGIC))
    offset = _U64.unpack(reader.take(_U64.size))[0]
    anchor = reader.take(reader.u32())
    archive_base = _U64.unpack(reader.take(_U64.size))[0]
    if not reader.done():
        raise CodecError("trailing bytes after the framed prune metadata")
    return offset, anchor, archive_base


class Blockchain:
    """Append-only store of validated blocks with hash-chain checking."""

    def __init__(self, backend: Optional[KVBackend] = None) -> None:
        self._backend = backend if backend is not None else MemoryBackend()
        self._offset = 0
        self._anchor = GENESIS_PREV_HASH
        self._archive_base = 0
        raw = self._backend.get(NS_BLOCKS_META, _PRUNE_META_KEY)
        if raw is not None:
            self._offset, self._anchor, self._archive_base = unpack_prune_meta(raw)
        self._blocks: list[ValidatedBlock] = []
        self._tx_index: dict[str, tuple[int, int]] = {}
        # The tx index must cover the archived prefix too: the validator's
        # duplicate-tx-id check and reconciliation lookups consult it, and
        # a reopen after prune_to() would otherwise accept replayed tx ids
        # from pruned history.  Archived blocks are decoded once here for
        # their ids and locations only — they are not kept in memory.
        for key, raw in self._backend.range(NS_BLOCKS_ARCHIVE):
            self._index_transactions(self._decode_block(key, raw))
        for key, raw in self._backend.range(NS_BLOCKS):
            self._cache(self._decode_block(key, raw))

    def _decode_block(self, key: str, head: bytes) -> ValidatedBlock:
        """The block whose head row is ``head``, with its tail row."""
        header, flags = unpack_block_row(head)
        tail = self._backend.get(NS_BLOCKS_TXS, key)
        if tail is None:
            raise CodecError(f"block {header.number} has no transaction row")
        return ValidatedBlock(block=Block.from_storage(header, tail), flags=flags)

    def _index_transactions(self, validated: ValidatedBlock) -> None:
        block = validated.block
        for tx_num, tx in enumerate(block.transactions):
            self._tx_index.setdefault(tx.tx_id, (block.header.number, tx_num))

    def _cache(self, validated: ValidatedBlock) -> None:
        self._index_transactions(validated)
        self._blocks.append(validated)

    # -- pruned-prefix accounting --------------------------------------------
    @property
    def genesis_offset(self) -> int:
        """Number of the first live (non-pruned) block."""
        return self._offset

    @property
    def archive_base(self) -> int:
        """Lowest block number held by the cold archive."""
        return self._archive_base

    @property
    def full_history_available(self) -> bool:
        """True when archive + live blocks reach back to block 0."""
        return self._archive_base == 0

    def _stage_prune_meta(
        self, batch: WriteBatch, offset: int, anchor: bytes, archive_base: int
    ) -> None:
        batch.put(NS_BLOCKS_META, _PRUNE_META_KEY, pack_prune_meta(offset, anchor, archive_base))

    def prune_to(self, height: int) -> int:
        """Archive every block below ``height``; returns the count moved.

        Archiving is a move, not a delete: the head rows land in the cold
        ``blocks.archive`` namespace (the tail rows stay in ``blocks.txs``),
        so audits can still replay the full history while the hot chain
        (and its indexes) stay bounded.  The move plus the prune metadata
        commit in one atomic batch.
        """
        target = min(height, self.height)
        if target <= self._offset:
            return 0
        count = target - self._offset
        pruned = self._blocks[:count]
        batch = WriteBatch()
        for validated in pruned:
            key = _block_key(validated.block.header.number)
            raw = self._backend.get(NS_BLOCKS, key)
            if raw is None:  # pragma: no cover - append always persisted it
                raw = pack_block_row(validated)
            batch.put(NS_BLOCKS_ARCHIVE, key, raw)
            batch.delete(NS_BLOCKS, key)
        anchor = pruned[-1].block.header.block_hash()
        self._stage_prune_meta(batch, target, anchor, self._archive_base)

        def _apply() -> None:
            del self._blocks[:count]
            self._offset = target
            self._anchor = anchor

        batch.on_commit(_apply)
        self._backend.commit(batch)
        return count

    def bootstrap_base(
        self, height: int, last_hash: bytes, batch: WriteBatch
    ) -> None:
        """Stage the pruned-prefix base of a snapshot-bootstrapped chain.

        The peer holds no blocks below ``height`` at all (``archive_base
        == offset``); the next appended block must be number ``height``
        with ``prev_hash == last_hash`` from the snapshot manifest.
        """
        if self._blocks or self._offset:
            raise LedgerError("cannot bootstrap a non-empty chain")
        if height < 0:
            raise LedgerError("bootstrap height must be >= 0")
        self._stage_prune_meta(batch, height, last_hash, height)

        def _apply() -> None:
            self._offset = height
            self._anchor = last_hash
            self._archive_base = height

        batch.on_commit(_apply)

    # -- chain operations -----------------------------------------------------
    @property
    def height(self) -> int:
        return self._offset + len(self._blocks)

    def last_hash(self) -> bytes:
        if not self._blocks:
            return self._anchor
        return self._blocks[-1].block.header.block_hash()

    def append(self, validated: ValidatedBlock, batch: Optional[WriteBatch] = None) -> None:
        """Append a block, enforcing numbering and hash-chain continuity."""
        block = validated.block
        if block.header.number != self.height:
            raise LedgerError(
                f"expected block number {self.height}, got {block.header.number}"
            )
        if block.header.prev_hash != self.last_hash():
            raise LedgerError(f"block {block.header.number} breaks the hash chain")
        if not block.verify_data_hash():
            raise LedgerError(f"block {block.header.number} has a corrupted data hash")
        if len(validated.flags) != len(block.transactions):
            raise LedgerError("validated block must carry one flag per transaction")
        own_batch = batch is None
        if own_batch:
            batch = WriteBatch()
        key = _block_key(block.header.number)
        batch.put(NS_BLOCKS, key, pack_block_row(validated))
        batch.put(NS_BLOCKS_TXS, key, block.stored_transactions())
        batch.on_commit(lambda: self._cache(validated))
        if own_batch:
            self._backend.commit(batch)

    def block(self, number: int) -> ValidatedBlock:
        index = number - self._offset
        if index < 0:
            raise LedgerError(
                f"block {number} is pruned (genesis offset {self._offset})"
            )
        try:
            return self._blocks[index]
        except IndexError:
            raise LedgerError(f"no block number {number} (height {self.height})") from None

    def blocks(self) -> Iterator[ValidatedBlock]:
        """The live (non-pruned) blocks, in commit order."""
        return iter(self._blocks)

    def archived_blocks(self) -> Iterator[ValidatedBlock]:
        """Cold-archived blocks, in commit order (decoded on demand)."""
        for key, raw in self._backend.range(NS_BLOCKS_ARCHIVE):
            yield self._decode_block(key, raw)

    def all_blocks(self) -> Iterator[ValidatedBlock]:
        """Archived + live blocks — the full replayable history when
        :attr:`full_history_available` holds."""
        yield from self.archived_blocks()
        yield from self._blocks

    def block_heads(self) -> Iterator[tuple[BlockHeader, list[ValidationCode]]]:
        """``(header, flags)`` of every archived + live block, in commit
        order — :meth:`all_blocks` without decoding a transaction."""
        for _, raw in self._backend.range(NS_BLOCKS_ARCHIVE):
            yield unpack_block_row(raw)
        for validated in self._blocks:
            yield validated.block.header, validated.flags

    def stored_block(self, number: int) -> ValidatedBlock:
        """Block ``number``, live or archived (decoded on demand)."""
        if number >= self._offset:
            return self.block(number)
        key = _block_key(number)
        raw = self._backend.get(NS_BLOCKS_ARCHIVE, key)
        if raw is None:
            raise LedgerError(f"block {number} is not held (archive base {self._archive_base})")
        return self._decode_block(key, raw)

    def find_transaction(
        self, tx_id: str
    ) -> Optional[tuple[TransactionEnvelope, ValidationCode]]:
        """Locate a committed transaction and its validity flag by id.

        The index survives pruning (it is the lookup structure, not the
        history); a hit below the genesis offset decodes the block from
        the cold archive on demand.
        """
        location = self._tx_index.get(tx_id)
        if location is None:
            return None
        block_num, tx_num = location
        validated = self.stored_block(block_num)
        return validated.block.transactions[tx_num], validated.flags[tx_num]

    def transaction_flag(self, tx_id: str) -> Optional[ValidationCode]:
        """The validity flag of a committed transaction, by id.

        Reads only an archived block's head row, never its transactions.
        """
        location = self._tx_index.get(tx_id)
        if location is None:
            return None
        block_num, tx_num = location
        if block_num >= self._offset:
            return self._blocks[block_num - self._offset].flags[tx_num]
        raw = self._backend.get(NS_BLOCKS_ARCHIVE, _block_key(block_num))
        return unpack_block_row(raw)[1][tx_num]

    def has_transaction(self, tx_id: str) -> bool:
        return tx_id in self._tx_index

    def locate_transaction(self, tx_id: str) -> Optional[tuple[int, int]]:
        """``(block number, tx number)`` of a committed transaction."""
        return self._tx_index.get(tx_id)

    def all_transactions(self) -> Iterator[tuple[TransactionEnvelope, ValidationCode]]:
        """Every live committed transaction with its flag, in commit order."""
        for validated in self._blocks:
            yield from zip(validated.block.transactions, validated.flags)

    def verify_chain(self) -> bool:
        """Re-check the live hash chain (integrity audit helper).

        A pruned chain verifies from its anchor: the first live block must
        be number ``genesis_offset`` and link to the archived prefix's
        last hash, which the snapshot manifest attested under policy.
        """
        prev = self._anchor
        for number, validated in enumerate(self._blocks, start=self._offset):
            header = validated.block.header
            if header.number != number or header.prev_hash != prev:
                return False
            if not validated.block.verify_data_hash():
                return False
            prev = header.block_hash()
        return True
