"""Signed state snapshots: checkpointed peer bootstrap with tail replay.

Models Fabric's ledger checkpointing/snapshot feature for the recovery
and join path.  Every ``snapshot_every`` blocks a peer derives a
:class:`SnapshotManifest` from its committed state — block height, last
block hash, a digest over the state every peer shares (public world
state + metadata + the private *hash* store) and per-collection digests
over the hashed private entries — signs it, and gossips the signature.
When the accumulated certificates satisfy the channel policy the
snapshot is *sealed*: it is now an attested checkpoint any peer may
bootstrap from, and (under ``prune=True``) the blocks below it may be
archived.

The manifest deliberately covers only state all peers share.  Private
*plaintext* never enters the signed digest — a non-member could not
verify it — but every plaintext row a bootstrapping peer receives must
hash-match a row of the attested hash store, so the plaintext rides the
transfer without riding the trust.  The remaining member-only rows are
verified the same way rather than trusted: ``private.meta`` must be
exactly re-derivable from the attested versions plus the channel's BTL
configuration, and missing-data/rwset rows must decode under the strict
deterministic framing and agree with their keys (``verify_package``).
No byte of a received package is ever fed to ``pickle``.

A snapshot *package* is what travels to a bootstrapping peer: the
manifest, the signature set, and the raw backend rows of the state
namespaces, filtered to the collections the requesting organization is a
member of.  Loading a package writes the rows verbatim — the
bootstrapped stores are byte-identical to the server's at the snapshot
height, which the ``snapshot-equivalence`` invariant checks against a
replay-from-genesis reference.  Because the BlockToLive metadata rides
along, the joiner's rebuilt expiry index re-purges anything that expires
during tail replay, so pruning can never resurrect BTL-purged plaintext.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.errors import SnapshotError
from repro.common.hashing import hash_key, hash_value
from repro.common.serialization import Memoized, canonical_bytes, from_canonical_bytes
from repro.identity.identity import Certificate
from repro.ledger.ledger import (
    NS_MISSING,
    NS_PRIVATE_META,
    NS_PRIVATE_RWSETS,
    PeerLedger,
    unpack_missing_record,
)
from repro.ledger.private_state import NS_PRIVATE, NS_PRIVATE_HASH
from repro.ledger.world_state import NS_PUBLIC, NS_PUBLIC_META
from repro.storage import WriteBatch, compose_key, split_key
from repro.storage.codec import (
    U64_PAIR_SIZE,
    CodecError,
    pack_tables,
    unpack_bytes_map,
    unpack_private_writes,
    unpack_tables,
    unpack_u64_pair,
    unpack_versioned,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.network.channel import ChannelConfig

#: Channel policy a snapshot's signature set must satisfy before the
#: snapshot counts as sealed — the same majority-of-orgs rule the default
#: chaincode endorsement uses.
SNAPSHOT_POLICY = "MAJORITY Endorsement"

#: Namespaces whose digest every peer can recompute and attest.
SHARED_NAMESPACES = (NS_PUBLIC, NS_PUBLIC_META, NS_PRIVATE_HASH)
#: Namespaces carrying member-only rows, filtered per requester org.
PRIVATE_NAMESPACES = (NS_PRIVATE, NS_PRIVATE_META, NS_MISSING, NS_PRIVATE_RWSETS)
PAYLOAD_NAMESPACES = SHARED_NAMESPACES + PRIVATE_NAMESPACES

NS_SNAPSHOTS = "snapshots"

#: Sealed snapshots retained per peer; older ones are dropped so snapshot
#: storage stays bounded regardless of chain length.
RETAIN_SNAPSHOTS = 2


@dataclass(frozen=True)
class SnapshotManifest(Memoized):
    """What a peer signs: the attestable summary of its state at a height."""

    channel_id: str
    height: int
    last_block_hash: bytes
    state_hash: str
    #: Sorted ``(namespace, collection, digest_hex)`` triples over the
    #: hashed private entries of each collection.
    collection_digests: tuple

    def signing_bytes(self) -> bytes:
        """The canonical bytes every signature covers (memoized): a
        manifest is signed once and verified at every peer it reaches."""
        return self._memo("_signing", lambda: canonical_bytes({
            "kind": "snapshot-manifest",
            "channel": self.channel_id,
            "height": self.height,
            "last_block_hash": self.last_block_hash,
            "state_hash": self.state_hash,
            "collections": [list(entry) for entry in self.collection_digests],
        }))

    @classmethod
    def from_signing_bytes(cls, raw: bytes) -> "SnapshotManifest":
        """Inverse of :meth:`signing_bytes`; anything else raises
        :class:`SnapshotError` — only the bytes it would sign decode."""
        try:
            doc = from_canonical_bytes(raw)
            manifest = cls(
                channel_id=doc["channel"],
                height=doc["height"],
                last_block_hash=doc["last_block_hash"],
                state_hash=doc["state_hash"],
                collection_digests=tuple(tuple(entry) for entry in doc["collections"]),
            )
            canonical = manifest.signing_bytes()
        except (TypeError, KeyError, ValueError, RecursionError) as exc:
            raise SnapshotError(f"malformed snapshot manifest: {exc!r}") from exc
        if canonical != raw:
            raise SnapshotError("snapshot manifest bytes are not its signing bytes")
        return manifest


@dataclass
class SnapshotRecord:
    """A peer's locally stored snapshot: manifest + payload + signatures."""

    manifest: SnapshotManifest
    #: Raw backend rows per namespace: ``{namespace: [(key, value), ...]}``.
    rows: dict
    #: ``enrollment_id -> (certificate, signature)`` over the manifest.
    signatures: dict = field(default_factory=dict)
    sealed: bool = False


@dataclass(frozen=True)
class SnapshotPackage:
    """What travels to a bootstrapping peer: a membership-filtered record."""

    manifest: SnapshotManifest
    signatures: dict
    rows: dict


# -- digests -----------------------------------------------------------------
def digest_rows(rows: dict) -> tuple[str, tuple]:
    """State hash + per-collection digests over shared-namespace rows.

    Digests are computed over *decoded* canonical forms, not raw bytes,
    so they are independent of the (pickled, order-sensitive) metadata
    framing and reproduce identically on every honest peer.
    """
    state = hashlib.sha256(b"repro-snapshot-state")
    for key, raw in rows.get(NS_PUBLIC, ()):
        value, version = unpack_versioned(raw)
        state.update(canonical_bytes(["public", key, value, version.to_wire()]))
    for key, raw in rows.get(NS_PUBLIC_META, ()):
        # Strict deterministic decode: these rows may come from another
        # peer's package, so they must never reach pickle.
        metadata = unpack_bytes_map(raw)
        state.update(canonical_bytes(
            ["meta", key, [[name, metadata[name]] for name in sorted(metadata)]]
        ))
    collections: dict[tuple[str, str], "hashlib._Hash"] = {}
    for key, raw in rows.get(NS_PRIVATE_HASH, ()):
        namespace, collection, _ = split_key(key)
        value_hash, version = unpack_versioned(raw)
        entry = canonical_bytes(["hash", key, value_hash, version.to_wire()])
        state.update(entry)
        hasher = collections.setdefault(
            (namespace, collection), hashlib.sha256(b"repro-snapshot-collection")
        )
        hasher.update(entry)
    digests = tuple(sorted(
        (namespace, collection, hasher.hexdigest())
        for (namespace, collection), hasher in collections.items()
    ))
    return state.hexdigest(), digests


def collect_rows(ledger: PeerLedger) -> dict:
    """Every payload namespace's raw rows, in key order."""
    return {
        namespace: list(ledger.backend.range(namespace))
        for namespace in PAYLOAD_NAMESPACES
    }


def build_snapshot(ledger: PeerLedger, channel_id: str) -> SnapshotRecord:
    """Capture the ledger's state at its current height as a record."""
    rows = collect_rows(ledger)
    state_hash, collection_digests = digest_rows(rows)
    manifest = SnapshotManifest(
        channel_id=channel_id,
        height=ledger.height,
        last_block_hash=ledger.blockchain.last_hash(),
        state_hash=state_hash,
        collection_digests=collection_digests,
    )
    return SnapshotRecord(manifest=manifest, rows=rows)


# -- membership filtering ----------------------------------------------------
def row_collection(namespace: str, key: str) -> tuple[str, str]:
    """The ``(chaincode, collection)`` of a row of a member-only namespace."""
    parts = split_key(key)
    if namespace in (NS_MISSING, NS_PRIVATE_RWSETS):  # (tx_id, cc, collection)
        return parts[1], parts[2]
    return parts[0], parts[1]


def filter_package_for(
    record: SnapshotRecord, channel: "ChannelConfig", msp_id: str
) -> SnapshotPackage:
    """The membership-filtered view of ``record`` served to ``msp_id``.

    Shared namespaces travel whole; member-only rows travel only for
    collections the requesting organization belongs to, so a snapshot
    transfer leaks no more plaintext than gossip dissemination would.

    Plaintext rows that do not match an attested hash-store row are
    dropped from the package: a member can legitimately hold *stale*
    plaintext (a later hash-delete or overwrite committed while that
    transaction's plaintext never arrived — a missing-data record marks
    the gap), but unattested plaintext cannot be verified by the
    receiver, so it does not transfer.  The shipped missing-data records
    let the bootstrapped peer reconcile the gap exactly as the serving
    member does.
    """
    member = channel.member_collections(msp_id)
    rows = {namespace: list(record.rows.get(namespace, ()))
            for namespace in SHARED_NAMESPACES}
    attested = {}
    for key, raw in record.rows.get(NS_PRIVATE_HASH, ()):
        namespace, collection, key_hash_hex = split_key(key)
        attested[(namespace, collection, key_hash_hex)] = unpack_versioned(raw)

    def _attestable(key: str, raw: bytes) -> bool:
        namespace, collection, plain_key = split_key(key)
        entry = attested.get((namespace, collection, hash_key(plain_key).hex()))
        if entry is None:
            return False
        value, version = unpack_versioned(raw)
        return entry == (hash_value(value), version)

    for namespace in PRIVATE_NAMESPACES:
        rows[namespace] = [
            (key, value) for key, value in record.rows.get(namespace, ())
            if row_collection(namespace, key) in member
            and (namespace != NS_PRIVATE or _attestable(key, value))
        ]
    return SnapshotPackage(
        manifest=record.manifest,
        signatures=dict(record.signatures),
        rows=rows,
    )


# -- verification + bootstrap ------------------------------------------------
def verify_package(package: SnapshotPackage, channel: "ChannelConfig") -> None:
    """Reject a package whose attestation or payload cannot be trusted.

    Shared namespaces are hash-checked against the signed manifest.  The
    member-only namespaces cannot ride the manifest (non-members hold no
    rows to attest, and missing-data records are inherently per-peer), so
    they are verified against attested data instead: plaintext must
    hash-match the attested hash store, ``private.meta`` must be exactly
    re-derivable from the attested versions and the channel's BTL
    configuration, and missing/rwset rows must decode under the strict
    deterministic framing and agree with their composite keys.  No byte of
    the package ever reaches ``pickle``.
    """
    manifest = package.manifest
    signing = manifest.signing_bytes()
    certs = []
    for _, (certificate, signature) in sorted(package.signatures.items()):
        if not channel.msp_registry.validate_certificate(certificate):
            continue
        if not certificate.public_key.verify(signing, signature):
            continue
        certs.append(certificate)
    if not channel.evaluator().evaluate(SNAPSHOT_POLICY, certs):
        raise SnapshotError(
            f"snapshot at height {manifest.height}: signature set does not "
            f"satisfy {SNAPSHOT_POLICY!r}"
        )
    try:
        state_hash, collection_digests = digest_rows(package.rows)
        if state_hash != manifest.state_hash:
            raise SnapshotError(
                f"snapshot at height {manifest.height}: payload state hash "
                f"{state_hash} != manifest {manifest.state_hash}"
            )
        # The served payload carries every shared hash row, so its collection
        # digests must reproduce the manifest's exactly.
        if collection_digests != manifest.collection_digests:
            raise SnapshotError(
                f"snapshot at height {manifest.height}: per-collection digests diverge"
            )
        _verify_private_rows(package)
        _verify_private_meta_rows(package, channel)
        _verify_ancillary_rows(package, channel)
    except SnapshotError:
        raise
    except (CodecError, struct.error, ValueError) as exc:
        raise SnapshotError(
            f"snapshot at height {manifest.height}: malformed payload row: {exc}"
        ) from None


def _verify_private_rows(package: SnapshotPackage) -> None:
    """Every plaintext row must hash-match an attested hash-store row."""
    hashes = {}
    for key, raw in package.rows.get(NS_PRIVATE_HASH, ()):
        namespace, collection, key_hash_hex = split_key(key)
        hashes[(namespace, collection, key_hash_hex)] = unpack_versioned(raw)
    for key, raw in package.rows.get(NS_PRIVATE, ()):
        namespace, collection, plain_key = split_key(key)
        value, version = unpack_versioned(raw)
        attested = hashes.get((namespace, collection, hash_key(plain_key).hex()))
        if attested is None:
            raise SnapshotError(
                f"plaintext {plain_key!r} in {namespace}/{collection} has no "
                f"attested hash entry"
            )
        value_hash, hash_version = attested
        if value_hash != hash_value(value) or hash_version != version:
            raise SnapshotError(
                f"plaintext {plain_key!r} in {namespace}/{collection} does "
                f"not match its attested hash"
            )


def _verify_private_meta_rows(
    package: SnapshotPackage, channel: "ChannelConfig"
) -> None:
    """``private.meta`` rows must be re-derivable from attested data.

    A meta row records ``(commit block, BTL expiry)`` for a plaintext key
    and drives the joiner's purge schedule, so a forged row could expire
    shipped plaintext early or let it outlive its BlockToLive.  The
    receiver pins every row to data it already verified: the expiry must
    be exactly what the channel's collection config derives from the
    commit block, the commit block must lie below the snapshot height,
    and — whenever the package ships the key's plaintext — the commit
    block must equal the attested version.  A row for a key without
    shipped plaintext (a stale or deleted key) only schedules a no-op
    purge, so the structural checks suffice there.  Conversely, every
    shipped plaintext row must carry its meta row, or BTL purge could
    never fire for it on the joiner.
    """
    manifest = package.manifest
    btl_map = channel.block_to_live_map()
    plaintext_versions = {}
    for key, raw in package.rows.get(NS_PRIVATE, ()):
        namespace, collection, plain_key = split_key(key)
        _, version = unpack_versioned(raw)
        plaintext_versions[(namespace, collection, plain_key)] = version
    meta_blocks: dict[tuple, int] = {}
    for key, raw in package.rows.get(NS_PRIVATE_META, ()):
        parts = split_key(key)
        if len(parts) != 3:
            raise SnapshotError(f"malformed private.meta key {key!r}")
        namespace, collection, plain_key = parts
        if (namespace, collection) not in btl_map:
            raise SnapshotError(
                f"private.meta row for unknown collection {namespace}/{collection}"
            )
        if len(raw) != U64_PAIR_SIZE:
            raise SnapshotError(f"private.meta value for {key!r} is not a u64 pair")
        block_num, expiry = unpack_u64_pair(raw)
        if block_num >= manifest.height:
            raise SnapshotError(
                f"private.meta commit height {block_num} for {key!r} is not "
                f"below the snapshot height {manifest.height}"
            )
        btl = btl_map[(namespace, collection)]
        expected = block_num + btl + 1 if btl else 0
        if expiry != expected:
            raise SnapshotError(
                f"private.meta expiry for {key!r} is {expiry}, expected "
                f"{expected} from commit height {block_num} under btl={btl}"
            )
        version = plaintext_versions.get((namespace, collection, plain_key))
        if version is not None and version.block_num != block_num:
            raise SnapshotError(
                f"private.meta commit height {block_num} for {key!r} does not "
                f"match the shipped plaintext version {version.block_num}"
            )
        meta_blocks[(namespace, collection, plain_key)] = block_num
    for (namespace, collection, plain_key), version in plaintext_versions.items():
        if (namespace, collection, plain_key) not in meta_blocks:
            raise SnapshotError(
                f"plaintext {plain_key!r} in {namespace}/{collection} has no "
                f"private.meta row: its BTL expiry could never be scheduled"
            )


def _verify_ancillary_rows(
    package: SnapshotPackage, channel: "ChannelConfig"
) -> None:
    """Missing-data and committed-rwset rows must be coherent, not trusted.

    Neither namespace can be pinned to the manifest (missing records are
    per-peer, rwset archives depend on which plaintext a member held), but
    both decode under the strict deterministic framing, must agree with
    their composite keys, and may only reference known collections.  A
    fabricated rwset row is further bounded downstream: reconciling peers
    re-verify every served rwset against the on-chain hashes before
    applying it (:meth:`PrivateCollectionWrites.matches_hashes`).
    """
    manifest = package.manifest
    known = set(channel.block_to_live_map())
    rwset_keys = set()
    for key, raw in package.rows.get(NS_PRIVATE_RWSETS, ()):
        parts = split_key(key)
        if len(parts) != 3:
            raise SnapshotError(f"malformed private.rwsets key {key!r}")
        tx_id, namespace, collection = parts
        if (namespace, collection) not in known:
            raise SnapshotError(
                f"rwset row for unknown collection {namespace}/{collection}"
            )
        row_namespace, row_collection, _ = unpack_private_writes(raw)
        if (row_namespace, row_collection) != (namespace, collection):
            raise SnapshotError(
                f"rwset row {key!r} disagrees with its framed payload "
                f"({row_namespace}/{row_collection})"
            )
        rwset_keys.add((tx_id, namespace, collection))
    for key, raw in package.rows.get(NS_MISSING, ()):
        parts = split_key(key)
        if len(parts) != 3:
            raise SnapshotError(f"malformed missing-data key {key!r}")
        tx_id, namespace, collection = parts
        record = unpack_missing_record(raw)
        if (record.tx_id, record.namespace, record.collection) != (
            tx_id, namespace, collection,
        ):
            raise SnapshotError(
                f"missing-data row {key!r} disagrees with its framed record"
            )
        if (namespace, collection) not in known:
            raise SnapshotError(
                f"missing-data row for unknown collection {namespace}/{collection}"
            )
        if record.block_num >= manifest.height:
            raise SnapshotError(
                f"missing-data row {key!r} claims block {record.block_num} at "
                f"or above the snapshot height {manifest.height}"
            )
        if (tx_id, namespace, collection) in rwset_keys:
            raise SnapshotError(
                f"missing-data row {key!r} coexists with a committed rwset "
                f"for the same transaction"
            )


def bootstrap_from_package(
    ledger: PeerLedger, package: SnapshotPackage, channel: "ChannelConfig"
) -> None:
    """Load a verified package into an empty ledger, atomically.

    After this, the ledger's stores are byte-identical to the serving
    peer's (restricted to member collections) at the snapshot height, and
    its chain accepts block ``height`` with ``prev_hash`` equal to the
    manifest's last block hash — tail replay picks up from there.
    """
    verify_package(package, channel)
    if ledger.height != 0 or ledger.backend.namespaces():
        raise SnapshotError("snapshot bootstrap requires an empty ledger")
    batch = WriteBatch()
    for namespace, rows in package.rows.items():
        for key, value in rows:
            batch.put(namespace, key, value)
    ledger.blockchain.bootstrap_base(
        package.manifest.height, package.manifest.last_block_hash, batch
    )
    ledger.commit_batch(batch)
    ledger.rebuild()


# -- per-peer persistence ----------------------------------------------------
_MANIFEST = "manifest"
_ROWS = "rows"
_SEALED = "sealed"
_SIG = "sig"
_SEALED_MARK = b"\x01"


def _height_key(height: int) -> str:
    return f"{height:016d}"


def _row_key(height: int, *parts: str) -> str:
    return compose_key(_height_key(height), *parts)


def _pack_signature(certificate: Certificate, signature: bytes) -> bytes:
    return canonical_bytes({"certificate": certificate, "signature": signature})


def _unpack_signature(raw: bytes) -> tuple[Certificate, bytes]:
    doc = from_canonical_bytes(raw)
    return Certificate.from_wire(doc["certificate"]), doc["signature"]


class SnapshotStore:
    """A peer's durable snapshot records, in the ``snapshots`` namespace.

    A record is several rows under its zero-padded height, so every event
    writes only what it adds:

    * ``<height>/manifest`` — the manifest's signing bytes, and
    * ``<height>/rows`` — the payload rows (``pack_tables``), both written
      once, when the peer produces the snapshot;
    * ``<height>/sig/<enrollment id>`` — one row per signature, the
      canonical ``{certificate, signature}``;
    * ``<height>/sealed`` — the marker a seal writes.

    A received signature is one small row, checked against the manifest
    row and the other signature rows without reading the payload rows.
    A seal stages its marker and the retention it triggers in one batch:
    the newest :data:`RETAIN_SNAPSHOTS` records and the newest sealed one
    are kept, and every row of every other height is deleted.  Reads go
    through ``ledger.backend`` on every call so the store survives
    crash/reopen without its own recovery step; the record set is bounded
    by :data:`RETAIN_SNAPSHOTS` so cost stays O(1).
    """

    def __init__(self, ledger: PeerLedger) -> None:
        self._ledger = ledger

    def _heights(self, kind: str) -> list[int]:
        """Heights holding a ``kind`` row (``manifest`` or ``sealed``), ascending."""
        return [
            int(height)
            for height, *rest in (
                split_key(key) for key, _ in self._ledger.backend.range(NS_SNAPSHOTS)
            )
            if rest == [kind]
        ]

    # -- whole records ---------------------------------------------------------
    def stage_record(self, batch: WriteBatch, record: SnapshotRecord) -> None:
        """Stage ``record`` in place of whatever its height held.

        A sealed record stages its seal too, and with it the retention.
        """
        height = record.manifest.height
        for key, _ in self._ledger.backend.prefix(NS_SNAPSHOTS, _height_key(height)):
            batch.delete(NS_SNAPSHOTS, key)
        if record.sealed and not self._stage_seal(batch, height):
            return
        batch.put(NS_SNAPSHOTS, _row_key(height, _MANIFEST), record.manifest.signing_bytes())
        batch.put(NS_SNAPSHOTS, _row_key(height, _ROWS), pack_tables(
            {namespace: dict(rows) for namespace, rows in record.rows.items()}
        ))
        for certificate, signature in record.signatures.values():
            self.stage_signature(batch, height, certificate, signature)

    def get(self, height: int) -> Optional[SnapshotRecord]:
        backend = self._ledger.backend
        manifest = backend.get(NS_SNAPSHOTS, _row_key(height, _MANIFEST))
        if manifest is None:
            return None
        rows = unpack_tables(backend.get(NS_SNAPSHOTS, _row_key(height, _ROWS)))
        signatures = {}
        for key, raw in backend.prefix(NS_SNAPSHOTS, _height_key(height), _SIG):
            signatures[split_key(key)[-1]] = _unpack_signature(raw)
        return SnapshotRecord(
            manifest=SnapshotManifest.from_signing_bytes(manifest),
            rows={namespace: list(table.items()) for namespace, table in rows.items()},
            signatures=signatures,
            sealed=self.is_sealed(height),
        )

    def records(self) -> list[SnapshotRecord]:
        return [self.get(height) for height in self._heights(_MANIFEST)]

    def latest_sealed(self) -> Optional[SnapshotRecord]:
        height = self.latest_sealed_height()
        return self.get(height) if height is not None else None

    def latest_sealed_height(self) -> Optional[int]:
        sealed = self._heights(_SEALED)
        return sealed[-1] if sealed else None

    # -- the signature path ----------------------------------------------------
    def manifest_bytes(self, height: int) -> Optional[bytes]:
        """The stored manifest's signing bytes, or ``None``."""
        return self._ledger.backend.get(NS_SNAPSHOTS, _row_key(height, _MANIFEST))

    def has_signature(self, height: int, enrollment_id: str) -> bool:
        key = _row_key(height, _SIG, enrollment_id)
        return self._ledger.backend.get(NS_SNAPSHOTS, key) is not None

    def certificates(self, height: int) -> list[Certificate]:
        """The signers recorded for ``height``."""
        return [
            _unpack_signature(raw)[0]
            for _, raw in self._ledger.backend.prefix(NS_SNAPSHOTS, _height_key(height), _SIG)
        ]

    def is_sealed(self, height: int) -> bool:
        return self._ledger.backend.get(NS_SNAPSHOTS, _row_key(height, _SEALED)) is not None

    def stage_signature(
        self,
        batch: WriteBatch,
        height: int,
        certificate: Certificate,
        signature: bytes,
        seal: bool = False,
    ) -> None:
        """Stage one signature row for ``height``; with ``seal``, its seal too."""
        if seal and not self._stage_seal(batch, height):
            return
        batch.put(
            NS_SNAPSHOTS,
            _row_key(height, _SIG, certificate.enrollment_id),
            _pack_signature(certificate, signature),
        )

    # -- sealing and retention ---------------------------------------------------
    def _stage_seal(self, batch: WriteBatch, height: int) -> bool:
        """Stage ``height``'s seal marker and the retention the seal triggers.

        The newest sealed record is retained unconditionally: it is the
        peer's serving/bootstrap source, and the chain may already be
        pruned to its height — a seal that arrives late (via gossip) for
        an older height must not be dropped in favour of newer records
        that never reached quorum.  A late seal below a newer sealed
        record can still fall outside the kept set; then ``height``'s
        stored rows are staged for deletion, no marker is staged, and the
        ``False`` returned tells the caller to stage no row of ``height``
        either, so no row outlives its manifest.
        """
        heights = sorted(set(self._heights(_MANIFEST)) | {height})
        kept = set(heights[-RETAIN_SNAPSHOTS:])
        kept.add(max(self._heights(_SEALED) + [height]))
        backend = self._ledger.backend
        for dropped in heights:
            if dropped not in kept:
                for key, _ in backend.prefix(NS_SNAPSHOTS, _height_key(dropped)):
                    batch.delete(NS_SNAPSHOTS, key)
        if height not in kept:
            return False
        batch.put(NS_SNAPSHOTS, _row_key(height, _SEALED), _SEALED_MARK)
        return True
