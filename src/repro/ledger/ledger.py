"""The per-peer ledger: world state + private stores + blockchain.

One :class:`PeerLedger` instance backs one peer on one channel.  All five
stores share one :class:`repro.storage.KVBackend` (memory or WAL,
selected via ``REPRO_STATE_BACKEND``), so a block's public writes, hash
writes, plaintext writes, transient-store cleanup and the block itself
commit as **one atomic batch** — and ``crash()``/``reopen()`` model a
peer process dying and recovering from its durable state.

The ledger also tracks two pieces of PDC bookkeeping the committer needs:

* which ``(tx, namespace, collection)`` private payloads were *missing*
  at commit time (the block still commits; reconciliation may fill the
  gap later — Fabric behaves the same way), and
* the commit height and BlockToLive expiry of each private key.  Expiry
  heights are bucketed in memory (rebuilt from the backend on open), so
  the per-block purge touches only the keys that actually expire instead
  of scanning every private key ever committed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, MutableMapping, Optional

from repro.ledger.blockchain import Blockchain
from repro.ledger.private_state import PrivateDataStore, PrivateHashStore
from repro.ledger.transient_store import TransientStore
from repro.ledger.world_state import WorldState
from repro.storage import KVBackend, WriteBatch, compose_key, open_backend, read_through, split_key, write_op
from repro.storage.codec import (
    U64_PAIR_SIZE,
    CodecError,
    Reader,
    pack_str,
    pack_u64_pair,
    unpack_u64_pair,
)

NS_MISSING = "missing"
NS_PRIVATE_META = "private.meta"
NS_PRIVATE_RWSETS = "private.rwsets"

#: Deterministic framing magic for missing-data records (first byte 0x01
#: can never open a pickle protocol >= 2 stream).
MISSING_MAGIC = b"\x01RMD1"


@dataclass(frozen=True)
class MissingPrivateData:
    """A private payload a member peer could not obtain at commit time."""

    tx_id: str
    block_num: int
    namespace: str
    collection: str


def pack_missing_record(missing: "MissingPrivateData") -> bytes:
    """Frame a missing-data record with the deterministic struct codec.

    Missing rows ride snapshot packages between peers, so (like the WAL
    payloads) they must decode without ever reaching ``pickle``.
    """
    out = [MISSING_MAGIC]
    pack_str(out, missing.tx_id)
    out.append(pack_u64_pair(missing.block_num, 0))
    pack_str(out, missing.namespace)
    pack_str(out, missing.collection)
    return b"".join(out)


def unpack_missing_record(raw: bytes) -> MissingPrivateData:
    """Strictly decode a framed missing-data record."""
    if not raw.startswith(MISSING_MAGIC):
        raise CodecError("missing-data record lacks the deterministic-framing magic")
    reader = Reader(raw, len(MISSING_MAGIC))
    tx_id = reader.string()
    block_num, _ = unpack_u64_pair(reader.take(U64_PAIR_SIZE))
    namespace = reader.string()
    collection = reader.string()
    if not reader.done():
        raise CodecError("trailing bytes after the framed missing-data record")
    return MissingPrivateData(
        tx_id=tx_id, block_num=block_num, namespace=namespace, collection=collection
    )


class PrivateRwsetArchive(MutableMapping):
    """Committed plaintext private rwsets, indexed by ``(tx, ns, col)``.

    What reconciliation serves to member peers that missed the gossip
    push.  A mapping view over the backend's ``private.rwsets`` namespace
    so direct ``archive[key] = writes`` call sites keep working; the
    committer stages through :meth:`stage` to ride the block batch.
    """

    def __init__(self, backend: KVBackend) -> None:
        self._backend = backend
        # Per-(namespace, collection) tx-id index: what anti-entropy digests
        # are assembled from, O(1) per lookup instead of a full range scan.
        self._by_collection: dict[tuple[str, str], set[str]] = {}
        for composite, _ in backend.range(NS_PRIVATE_RWSETS):
            tx_id, namespace, collection = split_key(composite)
            self._by_collection.setdefault((namespace, collection), set()).add(tx_id)

    def _index_add(self, tx_id: str, namespace: str, collection: str) -> None:
        self._by_collection.setdefault((namespace, collection), set()).add(tx_id)

    def _index_drop(self, tx_id: str, namespace: str, collection: str) -> None:
        bucket = self._by_collection.get((namespace, collection))
        if bucket is not None:
            bucket.discard(tx_id)
            if not bucket:
                del self._by_collection[(namespace, collection)]

    def tx_ids_for(self, namespace: str, collection: str) -> frozenset:
        """Transactions with an archived rwset for ``(namespace, collection)``."""
        return frozenset(self._by_collection.get((namespace, collection), ()))

    def stage(
        self,
        tx_id: str,
        namespace: str,
        collection: str,
        writes,
        batch: Optional[WriteBatch],
    ) -> None:
        write_op(
            self._backend,
            batch,
            NS_PRIVATE_RWSETS,
            compose_key(tx_id, namespace, collection),
            writes.to_bytes(),
            on_commit=lambda: self._index_add(tx_id, namespace, collection),
        )

    def __getitem__(self, key: tuple[str, str, str]):
        # Imported here: repro.chaincode pulls in the stub, which imports
        # this module — a top-level import would be circular.
        from repro.chaincode.rwset import PrivateCollectionWrites

        raw = self._backend.get(NS_PRIVATE_RWSETS, compose_key(*key))
        if raw is None:
            raise KeyError(key)
        # Any framing but the archive's is a CodecError.
        return PrivateCollectionWrites.from_bytes(raw)

    def __setitem__(self, key: tuple[str, str, str], writes) -> None:
        self.stage(*key, writes, None)

    def __delitem__(self, key: tuple[str, str, str]) -> None:
        if self._backend.get(NS_PRIVATE_RWSETS, compose_key(*key)) is None:
            raise KeyError(key)
        self._backend.delete(NS_PRIVATE_RWSETS, compose_key(*key))
        self._index_drop(*key)

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        for composite, _ in self._backend.range(NS_PRIVATE_RWSETS):
            yield tuple(split_key(composite))

    def __len__(self) -> int:
        return self._backend.count(NS_PRIVATE_RWSETS)


class PeerLedger:
    """Everything one peer stores for one channel."""

    def __init__(self, backend: Optional[KVBackend] = None) -> None:
        self.backend = backend if backend is not None else open_backend()
        self._open_stores()

    def _open_stores(self) -> None:
        """(Re)build every store and derived index over ``self.backend``."""
        backend = self.backend
        self.world_state = WorldState(backend)
        self.private_data = PrivateDataStore(backend)
        self.private_hashes = PrivateHashStore(backend)
        self.blockchain = Blockchain(backend)
        self.transient_store = TransientStore(backend=backend)
        self.committed_private_rwsets = PrivateRwsetArchive(backend)
        # Missing-gap index: flat map for ordered iteration plus a
        # per-(namespace, collection) view so one reconciliation round is
        # O(repairable gaps), not O(gaps x member peers x list scans).
        self._missing: dict[tuple[str, str, str], MissingPrivateData] = {}
        self._missing_by_col: dict[tuple[str, str], dict[str, MissingPrivateData]] = {}
        for _, raw in backend.range(NS_MISSING):
            self._missing_add(unpack_missing_record(raw))
        # BlockToLive expiry index: expiry height -> private keys due then.
        self._expiry_buckets: dict[int, set[tuple[str, str, str]]] = {}
        self._expiry_heap: list[int] = []
        for composite, raw in backend.range(NS_PRIVATE_META):
            _, expiry = unpack_u64_pair(raw)
            if expiry:
                self._bucket(tuple(split_key(composite)), expiry)

    # -- batches / lifecycle -------------------------------------------------
    def new_batch(self) -> WriteBatch:
        return WriteBatch()

    def commit_batch(self, batch: WriteBatch) -> None:
        self.backend.commit(batch)

    def crash(self) -> None:
        """Simulate the peer process dying mid-flight."""
        self.backend.crash()

    def reopen(self) -> None:
        """Recover from the durable medium after a crash."""
        self.backend = self.backend.reopen()
        self._open_stores()

    def rebuild(self) -> None:
        """Rebuild every store and derived index from the backend.

        Called after bulk raw-row loads (snapshot bootstrap) that bypass
        the stores' own staging paths.
        """
        self._open_stores()

    def reset_stores(self) -> None:
        """Wipe every namespace, atomically, and rebuild empty stores.

        Used before a snapshot bootstrap over a stale ledger (a restarted
        peer whose durable height fell behind the pruned backlog): the
        recovered-but-unreachable state is discarded in favour of the
        policy-attested snapshot.
        """
        batch = WriteBatch()
        for namespace in self.backend.namespaces():
            for key, _ in list(self.backend.range(namespace)):
                batch.delete(namespace, key)
        self.backend.commit(batch)
        self._open_stores()

    @property
    def height(self) -> int:
        return self.blockchain.height

    # -- missing-private bookkeeping ----------------------------------------
    def _missing_add(self, missing: MissingPrivateData) -> None:
        self._missing[(missing.tx_id, missing.namespace, missing.collection)] = missing
        self._missing_by_col.setdefault(
            (missing.namespace, missing.collection), {}
        )[missing.tx_id] = missing

    def _missing_drop(self, tx_id: str, namespace: str, collection: str) -> None:
        self._missing.pop((tx_id, namespace, collection), None)
        col_map = self._missing_by_col.get((namespace, collection))
        if col_map is not None:
            col_map.pop(tx_id, None)
            if not col_map:
                del self._missing_by_col[(namespace, collection)]

    @property
    def missing_private(self) -> list[MissingPrivateData]:
        """Every unrepaired gap, in record order (a fresh list)."""
        return list(self._missing.values())

    def missing_by_collection(self) -> dict[tuple[str, str], dict[str, MissingPrivateData]]:
        """Gaps grouped per (namespace, collection): ``{tx_id: record}``."""
        return self._missing_by_col

    def get_missing(
        self, tx_id: str, namespace: str, collection: str
    ) -> Optional[MissingPrivateData]:
        return self._missing.get((tx_id, namespace, collection))

    def record_missing(
        self, missing: MissingPrivateData, batch: Optional[WriteBatch] = None
    ) -> None:
        write_op(
            self.backend,
            batch,
            NS_MISSING,
            compose_key(missing.tx_id, missing.namespace, missing.collection),
            pack_missing_record(missing),
            on_commit=lambda: self._missing_add(missing),
        )

    def resolve_missing(
        self,
        tx_id: str,
        namespace: str,
        collection: str,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        write_op(
            self.backend,
            batch,
            NS_MISSING,
            compose_key(tx_id, namespace, collection),
            None,
            on_commit=lambda: self._missing_drop(tx_id, namespace, collection),
        )

    # -- BlockToLive expiry --------------------------------------------------
    def _bucket(self, key: tuple[str, str, str], expiry: int) -> None:
        bucket = self._expiry_buckets.get(expiry)
        if bucket is None:
            self._expiry_buckets[expiry] = bucket = set()
            heapq.heappush(self._expiry_heap, expiry)
        bucket.add(key)

    def _unbucket(self, key: tuple[str, str, str], expiry: int) -> None:
        bucket = self._expiry_buckets.get(expiry)
        if bucket is not None:
            bucket.discard(key)

    def note_private_commit(
        self,
        namespace: str,
        collection: str,
        key: str,
        block_num: int,
        btl: int = 0,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        """Record a private key's commit height and schedule its expiry.

        ``btl`` is the collection's BlockToLive (0 = never expire).  The
        key lives through ``btl`` more blocks and is purged while
        committing block ``block_num + btl + 1`` — the expiring block
        Fabric's purge manager computes (``ComputeExpiringBlock``).
        """
        composite = compose_key(namespace, collection, key)
        expiry = block_num + btl + 1 if btl else 0
        existing = read_through(self.backend, batch, NS_PRIVATE_META, composite)

        def reindex() -> None:
            if existing is not None:
                _, old_expiry = unpack_u64_pair(existing)
                if old_expiry:
                    self._unbucket((namespace, collection, key), old_expiry)
            if expiry:
                self._bucket((namespace, collection, key), expiry)

        write_op(
            self.backend,
            batch,
            NS_PRIVATE_META,
            composite,
            pack_u64_pair(block_num, expiry),
            on_commit=reindex,
        )

    def purge_expired_private(self, height: int, batch: Optional[WriteBatch] = None) -> int:
        """Purge original private data past its collection's BlockToLive.

        Walks only the expiry buckets due strictly below ``height`` —
        O(number of expired keys), not O(all private keys).  Only the
        original data is purged; the hashes stay on every peer forever,
        as in Fabric.  Returns the purge count.
        """
        purged = 0
        while self._expiry_heap and self._expiry_heap[0] < height:
            expiry = heapq.heappop(self._expiry_heap)
            for namespace, collection, key in self._expiry_buckets.pop(expiry, ()):
                composite = compose_key(namespace, collection, key)
                # Read through the batch: a key re-committed earlier in the
                # same block batch carries a fresh expiry (its bucket update
                # runs on commit) and must survive this purge.
                raw = read_through(self.backend, batch, NS_PRIVATE_META, composite)
                if raw is None or unpack_u64_pair(raw)[1] != expiry:
                    continue
                self.private_data.delete(namespace, collection, key, batch=batch)
                write_op(self.backend, batch, NS_PRIVATE_META, composite, None)
                purged += 1
        return purged
