"""Transient store: private write sets awaiting commit.

Endorsers park the plaintext private rwset here after simulation; gossip
delivers copies to the other collection members, who also park them here
until the corresponding transaction arrives in a block.  Entries are
purged once consumed or after a block-height horizon, mirroring Fabric's
``transientBlockRetention``.

Entries live in the ``transient`` backend namespace, keyed by ``(tx id,
namespace, collection)``.  A row is ``u64 height | private writes |
crc32``: the height the entry was received at, then the collection's
writes in the private-rwset archive's framing
(:meth:`PrivateCollectionWrites.to_bytes`), sealed.  Two in-memory
indexes — ``tx_id -> {(namespace, collection)}`` and a height-ordered
heap — make :meth:`remove_transaction` and :meth:`purge_below` touch
only the affected entries instead of scanning the whole store (they were
both full scans on every block commit).  The indexes are derived state:
rebuilt from the backend on open (from each row's height prefix alone),
updated only via ``on_commit`` callbacks once a batch is durably
applied.
"""

from __future__ import annotations

import heapq
import struct
from typing import TYPE_CHECKING, Optional

from repro.storage import (
    KVBackend,
    MemoryBackend,
    WriteBatch,
    compose_key,
    read_through,
    split_key,
    write_op,
)
from repro.storage.codec import CodecError, seal, unseal

if TYPE_CHECKING:  # pragma: no cover - break the ledger<->chaincode import cycle
    from repro.chaincode.rwset import PrivateCollectionWrites

DEFAULT_RETENTION_BLOCKS = 1000

NS_TRANSIENT = "transient"

_HEIGHT = struct.Struct("<Q")


def pack_transient_row(writes: "PrivateCollectionWrites", height: int) -> bytes:
    return seal(_HEIGHT.pack(height) + writes.to_bytes())


def transient_row_height(raw: bytes) -> int:
    """The height prefix of a transient row, read without decoding it."""
    return _HEIGHT.unpack_from(raw)[0]


def unpack_transient_row(raw: bytes) -> tuple[int, "PrivateCollectionWrites"]:
    """``(height, writes)`` of a transient row; a bad row is a ``CodecError``."""
    from repro.chaincode.rwset import PrivateCollectionWrites  # the cycle above

    body = unseal(raw, "transient row")
    if len(body) < _HEIGHT.size:
        raise CodecError("transient row truncated before its height")
    return _HEIGHT.unpack_from(body)[0], PrivateCollectionWrites.from_bytes(body[_HEIGHT.size :])


class TransientStore:
    """Per-peer staging area for plaintext private data."""

    def __init__(
        self,
        retention_blocks: int = DEFAULT_RETENTION_BLOCKS,
        backend: Optional[KVBackend] = None,
    ) -> None:
        self._backend = backend if backend is not None else MemoryBackend()
        self._retention = retention_blocks
        # Derived indexes, rebuilt from the backend (e.g. after recovery).
        self._by_tx: dict[str, set[tuple[str, str]]] = {}
        self._height_of: dict[tuple[str, str, str], int] = {}
        self._heap: list[tuple[int, str, str, str]] = []
        for composite, raw in self._backend.range(NS_TRANSIENT):
            tx_id, namespace, collection = split_key(composite)
            self._index(tx_id, namespace, collection, transient_row_height(raw))

    # -- index maintenance ---------------------------------------------------
    def _index(self, tx_id: str, namespace: str, collection: str, height: int) -> None:
        self._by_tx.setdefault(tx_id, set()).add((namespace, collection))
        self._height_of[(tx_id, namespace, collection)] = height
        heapq.heappush(self._heap, (height, tx_id, namespace, collection))

    def _unindex(self, tx_id: str, namespace: str, collection: str) -> None:
        # Defensive: remove_transaction and purge_below staged in the same
        # batch may both cover an entry; the second callback is a no-op.
        scopes = self._by_tx.get(tx_id)
        if scopes is not None:
            scopes.discard((namespace, collection))
            if not scopes:
                del self._by_tx[tx_id]
        self._height_of.pop((tx_id, namespace, collection), None)
        # Stale heap entries are skipped lazily by purge_below.

    # -- operations ----------------------------------------------------------
    def put(
        self,
        tx_id: str,
        writes: "PrivateCollectionWrites",
        height: int,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        namespace, collection = writes.namespace, writes.collection
        write_op(
            self._backend,
            batch,
            NS_TRANSIENT,
            compose_key(tx_id, namespace, collection),
            pack_transient_row(writes, height),
            on_commit=lambda: self._index(tx_id, namespace, collection, height),
        )

    def get(self, tx_id: str, namespace: str, collection: str) -> "PrivateCollectionWrites | None":
        raw = self._backend.get(NS_TRANSIENT, compose_key(tx_id, namespace, collection))
        if raw is None:
            return None
        return unpack_transient_row(raw)[1]

    def has(self, tx_id: str, namespace: str, collection: str) -> bool:
        return (tx_id, namespace, collection) in self._height_of

    def remove_transaction(self, tx_id: str, batch: Optional[WriteBatch] = None) -> None:
        """Drop all entries of a committed (or abandoned) transaction."""
        for namespace, collection in list(self._by_tx.get(tx_id, ())):
            write_op(
                self._backend,
                batch,
                NS_TRANSIENT,
                compose_key(tx_id, namespace, collection),
                None,
                on_commit=lambda ns=namespace, col=collection: self._unindex(tx_id, ns, col),
            )

    def purge_below(self, height: int, batch: Optional[WriteBatch] = None) -> int:
        """Purge entries older than the retention horizon; returns count."""
        horizon = height - self._retention
        purged = 0
        while self._heap and self._heap[0][0] < horizon:
            entry_height, tx_id, namespace, collection = heapq.heappop(self._heap)
            # Skip heap entries that no longer reflect the live index
            # (already removed, or re-put at a newer height).
            if self._height_of.get((tx_id, namespace, collection)) != entry_height:
                continue
            # Read through the batch: an entry already staged for deletion
            # (remove_transaction in the same block batch) or re-put at a
            # newer height must not be purged again.
            raw = read_through(
                self._backend, batch, NS_TRANSIENT, compose_key(tx_id, namespace, collection)
            )
            if raw is None or transient_row_height(raw) != entry_height:
                continue
            write_op(
                self._backend,
                batch,
                NS_TRANSIENT,
                compose_key(tx_id, namespace, collection),
                None,
                on_commit=lambda t=tx_id, ns=namespace, col=collection: self._unindex(t, ns, col),
            )
            purged += 1
        return purged

    def __len__(self) -> int:
        return self._backend.count(NS_TRANSIENT)
