"""The public world state: a versioned key/value database.

Public data is stored as ``(key, value, version)`` at every peer in the
channel.  Namespaces isolate chaincodes from one another, exactly as
Fabric's state database prefixes keys with the chaincode name.

The store sits on a pluggable :class:`repro.storage.KVBackend`: entries
live in the ``public`` namespace as version-framed bytes, key metadata in
``public.meta``.  Every mutator takes an optional ``batch`` so the
committer can stage a whole block atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.ledger.version import Version
from repro.storage import KVBackend, MemoryBackend, WriteBatch, compose_key, read_through, write_op
from repro.storage.codec import (
    pack_bytes_map,
    pack_versioned,
    unpack_bytes_map,
    unpack_versioned,
)

NS_PUBLIC = "public"
NS_PUBLIC_META = "public.meta"


@dataclass(frozen=True)
class StateEntry:
    """One committed ``(value, version)`` pair."""

    value: bytes
    version: Version


class WorldState:
    """Versioned KV store with namespace isolation.

    Mutations happen only at commit time (the committer applies validated
    write sets); endorsement-phase reads never modify it.

    Besides values, each key may carry *metadata* — Fabric uses this for
    the key-level ("state-based") endorsement policy consulted by
    ``validator_keylevel.go``, the validator the paper's Use Case 2
    analyses.
    """

    VALIDATION_PARAMETER = "VALIDATION_PARAMETER"

    def __init__(self, backend: Optional[KVBackend] = None) -> None:
        self._backend = backend if backend is not None else MemoryBackend()

    def get(self, namespace: str, key: str) -> Optional[StateEntry]:
        """The committed entry for ``key``, or ``None`` when absent."""
        raw = self._backend.get(NS_PUBLIC, compose_key(namespace, key))
        if raw is None:
            return None
        value, version = unpack_versioned(raw)
        return StateEntry(value=value, version=version)

    def get_version(self, namespace: str, key: str) -> Optional[Version]:
        entry = self.get(namespace, key)
        return entry.version if entry else None

    def put(
        self,
        namespace: str,
        key: str,
        value: bytes,
        version: Version,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        """Commit (or stage) a write.  Versions must never move backwards."""
        composite = compose_key(namespace, key)
        existing = read_through(self._backend, batch, NS_PUBLIC, composite)
        if existing is not None:
            _, current = unpack_versioned(existing)
            if version < current:
                raise ValueError(
                    f"version regression on {namespace}/{key}: {current} -> {version}"
                )
        write_op(self._backend, batch, NS_PUBLIC, composite, pack_versioned(value, version))

    def delete(self, namespace: str, key: str, batch: Optional[WriteBatch] = None) -> None:
        """Commit a delete; deleting an absent key is a no-op (as in Fabric).

        Deleting a key also clears its metadata (incl. any key-level
        endorsement policy)."""
        composite = compose_key(namespace, key)
        write_op(self._backend, batch, NS_PUBLIC, composite, None)
        write_op(self._backend, batch, NS_PUBLIC_META, composite, None)

    # -- key metadata (key-level endorsement policies) ---------------------
    def set_metadata(
        self,
        namespace: str,
        key: str,
        name: str,
        value: bytes,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        composite = compose_key(namespace, key)
        raw = read_through(self._backend, batch, NS_PUBLIC_META, composite)
        metadata = unpack_bytes_map(raw) if raw is not None else {}
        metadata[name] = value
        write_op(self._backend, batch, NS_PUBLIC_META, composite, pack_bytes_map(metadata))

    def get_metadata(self, namespace: str, key: str, name: str) -> Optional[bytes]:
        raw = self._backend.get(NS_PUBLIC_META, compose_key(namespace, key))
        if raw is None:
            return None
        return unpack_bytes_map(raw).get(name)

    def get_validation_parameter(self, namespace: str, key: str) -> Optional[bytes]:
        """The key-level endorsement policy bytes, if one was ever set."""
        return self.get_metadata(namespace, key, self.VALIDATION_PARAMETER)

    def keys(self, namespace: str) -> list[str]:
        return [
            key[len(namespace) + 1 :]
            for key, _ in self._backend.prefix(NS_PUBLIC, namespace)
        ]

    def items(self, namespace: str) -> Iterator[tuple[str, StateEntry]]:
        for key, raw in self._backend.prefix(NS_PUBLIC, namespace):
            value, version = unpack_versioned(raw)
            yield key[len(namespace) + 1 :], StateEntry(value=value, version=version)

    def __len__(self) -> int:
        return self._backend.count(NS_PUBLIC)
