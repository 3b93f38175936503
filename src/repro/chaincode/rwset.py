"""Read/write sets: the execution-phase artifact validated at commit time.

Section III-B1 of the paper defines the semantics reproduced here
(Table I):

* a **read** records ``(key, version)`` — the version found in the world
  state at simulation time, or "absent" when the key does not exist;
* a **write** records ``(key, value, is_delete)`` — derived purely from
  the chaincode, *without* touching the world state, which is why PDC
  non-member peers can endorse write-only transactions (Use Case 1);
* a **delete** is a write with ``is_delete=True`` and a null value.

Private data never appears in plaintext on-chain: collection reads and
writes are recorded in *hashed* form inside the public read/write set,
while the plaintext collection writes travel off-chain (the "private
rwset" disseminated over gossip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.hashing import hash_key, hash_value
from repro.ledger.version import Version
from repro.storage.codec import pack_private_writes, unpack_private_writes


def _version_from_wire(wire: Optional[dict]) -> Optional[Version]:
    return Version.from_wire(wire) if wire is not None else None


@dataclass(frozen=True)
class KVRead:
    """A public read: ``(key, version)``; ``version is None`` = key absent."""

    key: str
    version: Optional[Version]

    def to_wire(self) -> dict:
        return {"key": self.key, "version": self.version.to_wire() if self.version else None}

    @classmethod
    def from_wire(cls, wire: dict) -> "KVRead":
        return cls(key=wire["key"], version=_version_from_wire(wire["version"]))


@dataclass(frozen=True)
class KVWrite:
    """A public write: ``(key, value, is_delete)``."""

    key: str
    value: Optional[bytes]
    is_delete: bool = False

    def to_wire(self) -> dict:
        return {"key": self.key, "value": self.value, "is_delete": self.is_delete}

    @classmethod
    def from_wire(cls, wire: dict) -> "KVWrite":
        return cls(key=wire["key"], value=wire["value"], is_delete=wire["is_delete"])


@dataclass(frozen=True)
class KVReadHash:
    """A hashed private read: ``(hash(key), version)``.

    Note it carries the genuine *version* from the hash store — the fact
    that ``GetPrivateDataHash`` yields the same version as
    ``GetPrivateData`` is the lever of the paper's endorsement forgery.
    """

    key_hash: bytes
    version: Optional[Version]

    def to_wire(self) -> dict:
        return {
            "key_hash": self.key_hash,
            "version": self.version.to_wire() if self.version else None,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "KVReadHash":
        return cls(key_hash=wire["key_hash"], version=_version_from_wire(wire["version"]))


@dataclass(frozen=True)
class KVWriteHash:
    """A hashed private write: ``(hash(key), hash(value), is_delete)``."""

    key_hash: bytes
    value_hash: Optional[bytes]
    is_delete: bool = False

    def to_wire(self) -> dict:
        return {
            "key_hash": self.key_hash,
            "value_hash": self.value_hash,
            "is_delete": self.is_delete,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "KVWriteHash":
        return cls(
            key_hash=wire["key_hash"],
            value_hash=wire["value_hash"],
            is_delete=wire["is_delete"],
        )


@dataclass(frozen=True)
class KVMetadataWrite:
    """A metadata write — in practice: a key-level endorsement policy.

    ``SetStateValidationParameter`` records one of these; at commit it
    lands in the world state's metadata and from then on governs who may
    endorse writes to ``key`` (state-based endorsement).
    """

    key: str
    name: str
    value: bytes

    def to_wire(self) -> dict:
        return {"key": self.key, "name": self.name, "value": self.value}

    @classmethod
    def from_wire(cls, wire: dict) -> "KVMetadataWrite":
        return cls(key=wire["key"], name=wire["name"], value=wire["value"])


@dataclass(frozen=True)
class RangeQueryInfo:
    """A recorded range scan: bounds plus every ``(key, version)`` seen.

    At validation time the committer re-scans ``[start_key, end_key)``
    against the *current* world state and compares: any key inserted,
    deleted or updated inside the range since simulation is a **phantom
    read** and invalidates the transaction (Fabric's
    ``PHANTOM_READ_CONFLICT``).
    """

    start_key: str
    end_key: str  # "" = unbounded
    reads: tuple[KVRead, ...] = ()

    def to_wire(self) -> dict:
        return {
            "start_key": self.start_key,
            "end_key": self.end_key,
            "reads": [r.to_wire() for r in self.reads],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RangeQueryInfo":
        return cls(
            start_key=wire["start_key"],
            end_key=wire["end_key"],
            reads=tuple(KVRead.from_wire(r) for r in wire["reads"]),
        )


@dataclass(frozen=True)
class HashedCollectionRWSet:
    """The on-chain (hashed) part of one collection's reads/writes."""

    collection: str
    hashed_reads: tuple[KVReadHash, ...] = ()
    hashed_writes: tuple[KVWriteHash, ...] = ()

    def to_wire(self) -> dict:
        return {
            "collection": self.collection,
            "hashed_reads": [r.to_wire() for r in self.hashed_reads],
            "hashed_writes": [w.to_wire() for w in self.hashed_writes],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "HashedCollectionRWSet":
        return cls(
            collection=wire["collection"],
            hashed_reads=tuple(KVReadHash.from_wire(r) for r in wire["hashed_reads"]),
            hashed_writes=tuple(KVWriteHash.from_wire(w) for w in wire["hashed_writes"]),
        )

    @property
    def has_writes(self) -> bool:
        return bool(self.hashed_writes)

    @property
    def has_reads(self) -> bool:
        return bool(self.hashed_reads)


@dataclass(frozen=True)
class NamespaceRWSet:
    """All reads/writes of one chaincode namespace within a transaction."""

    namespace: str
    reads: tuple[KVRead, ...] = ()
    writes: tuple[KVWrite, ...] = ()
    collections: tuple[HashedCollectionRWSet, ...] = ()
    range_queries: tuple[RangeQueryInfo, ...] = ()
    metadata_writes: tuple[KVMetadataWrite, ...] = ()

    def to_wire(self) -> dict:
        return {
            "namespace": self.namespace,
            "reads": [r.to_wire() for r in self.reads],
            "writes": [w.to_wire() for w in self.writes],
            "collections": [c.to_wire() for c in self.collections],
            "range_queries": [q.to_wire() for q in self.range_queries],
            "metadata_writes": [m.to_wire() for m in self.metadata_writes],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "NamespaceRWSet":
        return cls(
            namespace=wire["namespace"],
            reads=tuple(KVRead.from_wire(r) for r in wire["reads"]),
            writes=tuple(KVWrite.from_wire(w) for w in wire["writes"]),
            collections=tuple(HashedCollectionRWSet.from_wire(c) for c in wire["collections"]),
            range_queries=tuple(RangeQueryInfo.from_wire(q) for q in wire["range_queries"]),
            metadata_writes=tuple(
                KVMetadataWrite.from_wire(m) for m in wire["metadata_writes"]
            ),
        )

    def collection(self, name: str) -> Optional[HashedCollectionRWSet]:
        for col in self.collections:
            if col.collection == name:
                return col
        return None


@dataclass(frozen=True)
class TxReadWriteSet:
    """The complete on-chain read/write set of a transaction."""

    namespaces: tuple[NamespaceRWSet, ...] = ()

    def to_wire(self) -> dict:
        return {"namespaces": [ns.to_wire() for ns in self.namespaces]}

    @classmethod
    def from_wire(cls, wire: dict) -> "TxReadWriteSet":
        """Inverse of :meth:`to_wire`, as is every ``from_wire`` here."""
        return cls(namespaces=tuple(NamespaceRWSet.from_wire(ns) for ns in wire["namespaces"]))

    def namespace(self, name: str) -> Optional[NamespaceRWSet]:
        for ns in self.namespaces:
            if ns.namespace == name:
                return ns
        return None

    @property
    def is_read_only(self) -> bool:
        """No public writes and no hashed collection writes anywhere.

        Fabric's key-level validator skips collection-policy checks for
        such transactions — the rule behind Use Case 2 / the fake-read
        injection attack.
        """
        for ns in self.namespaces:
            if ns.writes or ns.metadata_writes:
                return False
            if any(col.hashed_writes for col in ns.collections):
                return False
        return True

    def collections_touched(self) -> set[tuple[str, str]]:
        """All ``(namespace, collection)`` pairs referenced by the rwset."""
        return {
            (ns.namespace, col.collection)
            for ns in self.namespaces
            for col in ns.collections
        }


@dataclass(frozen=True)
class PrivateCollectionWrites:
    """Plaintext writes of one collection — the off-chain private rwset."""

    namespace: str
    collection: str
    writes: tuple[KVWrite, ...] = ()

    def to_wire(self) -> dict:
        return {
            "namespace": self.namespace,
            "collection": self.collection,
            "writes": [w.to_wire() for w in self.writes],
        }

    def to_bytes(self) -> bytes:
        """The storage framing (:func:`~repro.storage.codec.pack_private_writes`)
        of the private-rwset archive and the transient store."""
        return pack_private_writes(
            self.namespace, self.collection, [(w.key, w.value, w.is_delete) for w in self.writes]
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrivateCollectionWrites":
        """Inverse of :meth:`to_bytes`; any other framing is a ``CodecError``."""
        namespace, collection, writes = unpack_private_writes(raw)
        return cls(
            namespace=namespace,
            collection=collection,
            writes=tuple(
                KVWrite(key=key, value=value, is_delete=is_delete)
                for key, value, is_delete in writes
            ),
        )

    def matches_hashes(self, hashed: HashedCollectionRWSet) -> bool:
        """Verify these plaintext writes against their on-chain hashes.

        Member peers run this check before committing private data
        received over gossip (Section III-A2, last sentence).
        """
        if len(self.writes) != len(hashed.hashed_writes):
            return False
        for plain, hashed_write in zip(self.writes, hashed.hashed_writes):
            if hash_key(plain.key) != hashed_write.key_hash:
                return False
            if plain.is_delete != hashed_write.is_delete:
                return False
            if plain.is_delete:
                continue
            if plain.value is None or hashed_write.value_hash is None:
                return False
            if hash_value(plain.value) != hashed_write.value_hash:
                return False
        return True


@dataclass
class SimulationResult:
    """Everything chaincode simulation produces at an endorser.

    ``rwset`` (with hashed collections) goes into the signed proposal
    response; ``private_writes`` stays at the endorser and is disseminated
    to collection members over gossip.
    """

    rwset: TxReadWriteSet
    private_writes: tuple[PrivateCollectionWrites, ...] = ()


class RWSetBuilder:
    """Accumulates reads/writes during one chaincode simulation.

    Later writes to the same key overwrite earlier ones (read-your-own-
    writes is handled by the stub); reads record only the *first* version
    observed per key, as Fabric does.
    """

    def __init__(self) -> None:
        self._reads: dict[tuple[str, str], KVRead] = {}
        self._writes: dict[tuple[str, str], KVWrite] = {}
        self._col_reads: dict[tuple[str, str, bytes], KVReadHash] = {}
        self._col_writes: dict[tuple[str, str, str], KVWrite] = {}
        self._range_queries: list[tuple[str, RangeQueryInfo]] = []
        self._metadata_writes: dict[tuple[str, str, str], KVMetadataWrite] = {}

    # -- public data ----------------------------------------------------
    def add_read(self, namespace: str, key: str, version: Optional[Version]) -> None:
        self._reads.setdefault((namespace, key), KVRead(key=key, version=version))

    def add_write(self, namespace: str, key: str, value: bytes) -> None:
        self._writes[(namespace, key)] = KVWrite(key=key, value=value, is_delete=False)

    def add_delete(self, namespace: str, key: str) -> None:
        self._writes[(namespace, key)] = KVWrite(key=key, value=None, is_delete=True)

    def get_write(self, namespace: str, key: str) -> Optional[KVWrite]:
        return self._writes.get((namespace, key))

    def pending_writes(self, namespace: str) -> dict[str, KVWrite]:
        """This simulation's own uncommitted writes (for range overlays)."""
        return {key: w for (ns, key), w in self._writes.items() if ns == namespace}

    def add_range_query(
        self, namespace: str, start_key: str, end_key: str, reads: tuple[KVRead, ...]
    ) -> None:
        self._range_queries.append(
            (namespace, RangeQueryInfo(start_key=start_key, end_key=end_key, reads=reads))
        )

    def add_metadata_write(self, namespace: str, key: str, name: str, value: bytes) -> None:
        self._metadata_writes[(namespace, key, name)] = KVMetadataWrite(
            key=key, name=name, value=value
        )

    # -- private data ---------------------------------------------------
    def add_private_read(
        self, namespace: str, collection: str, key_hash: bytes, version: Optional[Version]
    ) -> None:
        self._col_reads.setdefault(
            (namespace, collection, key_hash), KVReadHash(key_hash=key_hash, version=version)
        )

    def add_private_write(self, namespace: str, collection: str, key: str, value: bytes) -> None:
        self._col_writes[(namespace, collection, key)] = KVWrite(
            key=key, value=value, is_delete=False
        )

    def add_private_delete(self, namespace: str, collection: str, key: str) -> None:
        self._col_writes[(namespace, collection, key)] = KVWrite(
            key=key, value=None, is_delete=True
        )

    def get_private_write(self, namespace: str, collection: str, key: str) -> Optional[KVWrite]:
        return self._col_writes.get((namespace, collection, key))

    # -- assembly ---------------------------------------------------------
    def build(self) -> SimulationResult:
        """Produce the on-chain rwset and the off-chain private writes."""
        namespaces: dict[str, dict] = {}

        def bucket(ns: str) -> dict:
            return namespaces.setdefault(ns, {"reads": [], "writes": [], "cols": {}})

        for (ns, _), read in sorted(self._reads.items()):
            bucket(ns)["reads"].append(read)
        for (ns, _), write in sorted(self._writes.items()):
            bucket(ns)["writes"].append(write)
        for (ns, col, _), read in sorted(self._col_reads.items()):
            bucket(ns)["cols"].setdefault(col, {"reads": [], "writes": []})["reads"].append(read)
        for ns, query in self._range_queries:
            bucket(ns).setdefault("ranges", []).append(query)
        for (ns, _, _), meta in sorted(self._metadata_writes.items()):
            bucket(ns).setdefault("metadata", []).append(meta)

        private: dict[tuple[str, str], list[KVWrite]] = {}
        for (ns, col, _), write in sorted(self._col_writes.items()):
            col_bucket = bucket(ns)["cols"].setdefault(col, {"reads": [], "writes": []})
            value_hash = None if write.is_delete else hash_value(write.value or b"")
            col_bucket["writes"].append(
                KVWriteHash(
                    key_hash=hash_key(write.key),
                    value_hash=value_hash,
                    is_delete=write.is_delete,
                )
            )
            private.setdefault((ns, col), []).append(write)

        ns_sets = tuple(
            NamespaceRWSet(
                namespace=ns,
                reads=tuple(data["reads"]),
                writes=tuple(data["writes"]),
                range_queries=tuple(data.get("ranges", ())),
                metadata_writes=tuple(data.get("metadata", ())),
                collections=tuple(
                    HashedCollectionRWSet(
                        collection=col,
                        hashed_reads=tuple(col_data["reads"]),
                        hashed_writes=tuple(col_data["writes"]),
                    )
                    for col, col_data in sorted(data["cols"].items())
                ),
            )
            for ns, data in sorted(namespaces.items())
        )
        private_writes = tuple(
            PrivateCollectionWrites(namespace=ns, collection=col, writes=tuple(writes))
            for (ns, col), writes in sorted(private.items())
        )
        return SimulationResult(
            rwset=TxReadWriteSet(namespaces=ns_sets), private_writes=private_writes
        )
