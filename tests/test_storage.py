"""Storage engine, durability and boundary-condition tests.

Covers the pluggable ``repro.storage`` layer (memory + WAL backends,
atomic batches, torn-tail recovery), the exact purge boundaries the
ledger stores promise (BlockToLive expiry, transient retention), and
peer crash/recovery through the event runtime — including a negative
test proving the durability invariant actually bites.
"""

from __future__ import annotations

import json
import pickle
import random
import shutil
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.chaincode.rwset import KVWrite, PrivateCollectionWrites
from repro.common.errors import SnapshotError
from repro.common.hashing import hash_key, hash_value
from repro.common.serialization import clear_serialization_memos
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.ledger.block import Block
from repro.ledger.blockchain import (
    BLOCK_MAGIC,
    NS_BLOCKS,
    NS_BLOCKS_META,
    NS_BLOCKS_TXS,
    unpack_block_row,
    unpack_prune_meta,
)
from repro.ledger.ledger import PeerLedger
from repro.ledger.snapshot import SnapshotManifest
from repro.ledger.transient_store import NS_TRANSIENT, TransientStore, unpack_transient_row
from repro.ledger.version import Version
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.network.presets import three_org_network
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.simulation import RecoveryMonitor, SimulationConfig, harness, run_seed
from repro.storage import (
    MemoryBackend,
    StorageError,
    WalBackend,
    WriteBatch,
    open_backend,
    resolve_backend_kind,
)
from repro.storage.codec import (
    BYTES_MAP_MAGIC,
    CodecError,
    OPS_MAGIC,
    PRIVATE_WRITES_MAGIC,
    TABLES_MAGIC,
    pack_bytes_map,
    pack_ops,
    pack_private_writes,
    pack_tables,
    seal,
    unpack_bytes_map,
    unpack_ops,
    unpack_private_writes,
    unpack_tables,
)
from repro.storage.wal import _HEADER, SNAPSHOT_FILE, SNAPSHOT_TMP, WAL_FILE


# ---------------------------------------------------------------------------
# backend primitives
# ---------------------------------------------------------------------------
class TestBackends:
    @pytest.fixture(params=["memory", "wal"])
    def backend(self, request, tmp_path):
        if request.param == "memory":
            return MemoryBackend()
        return WalBackend(tmp_path / "engine")

    def test_put_get_delete(self, backend):
        backend.put("ns", "k", b"v")
        assert backend.get("ns", "k") == b"v"
        backend.delete("ns", "k")
        assert backend.get("ns", "k") is None

    def test_range_is_sorted_and_bounded(self, backend):
        for key in ("b", "a", "d", "c"):
            backend.put("ns", key, key.encode())
        assert [k for k, _ in backend.range("ns")] == ["a", "b", "c", "d"]
        assert [k for k, _ in backend.range("ns", "b", "d")] == ["b", "c"]
        assert backend.count("ns") == 4

    def test_namespaces_isolated(self, backend):
        backend.put("ns1", "k", b"1")
        backend.put("ns2", "k", b"2")
        assert backend.get("ns1", "k") == b"1"
        assert backend.get("ns2", "k") == b"2"
        assert backend.count("ns1") == 1

    def test_batch_is_atomic_and_callbacks_fire_after(self, backend):
        fired = []
        batch = WriteBatch()
        batch.put("ns", "a", b"1")
        batch.put("ns", "b", b"2")
        batch.delete("ns", "a")
        batch.on_commit(lambda: fired.append(backend.get("ns", "b")))
        assert backend.get("ns", "b") is None  # staged, not visible
        backend.commit(batch)
        assert backend.get("ns", "a") is None
        assert backend.get("ns", "b") == b"2"
        assert fired == [b"2"]  # callback ran after the durable apply

    def test_staged_reads_see_the_batch(self, backend):
        backend.put("ns", "k", b"old")
        batch = WriteBatch()
        batch.put("ns", "k", b"new")
        assert batch.staged("ns", "k") == b"new"
        batch.delete("ns", "k")
        assert batch.staged("ns", "k") is None

    def test_resolve_backend_kind(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATE_BACKEND", raising=False)
        assert resolve_backend_kind() == "memory"
        assert resolve_backend_kind("wal") == "wal"
        monkeypatch.setenv("REPRO_STATE_BACKEND", "wal")
        assert resolve_backend_kind() == "wal"
        monkeypatch.setenv("REPRO_STATE_BACKEND", "bogus")
        with pytest.raises(StorageError):
            resolve_backend_kind()

    def test_open_backend_with_directory(self, tmp_path):
        backend = open_backend("wal", directory=tmp_path, name="peer0")
        backend.put("ns", "k", b"v")
        assert (tmp_path / "peer0" / "wal.log").exists()


# ---------------------------------------------------------------------------
# WAL durability and recovery
# ---------------------------------------------------------------------------
class TestWalRecovery:
    def test_reopen_replays_the_log(self, tmp_path):
        backend = WalBackend(tmp_path)
        backend.put("ns", "k", b"v1")
        backend.put("ns", "k", b"v2")
        backend.put("other", "x", b"y")
        recovered = backend.reopen()
        assert recovered.get("ns", "k") == b"v2"
        assert recovered.get("other", "x") == b"y"
        assert recovered.replayed_records == 3
        assert recovered.recovered_torn_bytes == 0

    def test_crash_drops_uncommitted_batches(self, tmp_path):
        backend = WalBackend(tmp_path)
        backend.put("ns", "committed", b"v")
        batch = WriteBatch()
        batch.put("ns", "staged", b"lost")
        backend.crash()  # batch never committed
        recovered = backend.reopen()
        assert recovered.get("ns", "committed") == b"v"
        assert recovered.get("ns", "staged") is None

    def test_crashed_backend_refuses_commits(self, tmp_path):
        backend = WalBackend(tmp_path)
        backend.crash()
        with pytest.raises(StorageError):
            backend.put("ns", "k", b"v")

    def test_torn_final_record_truncated_not_misread(self, tmp_path):
        """A crash mid-append leaves a half record; recovery drops exactly it."""
        backend = WalBackend(tmp_path)
        backend.put("ns", "a", b"1")
        backend.put("ns", "b", b"2")
        backend.crash()
        # Simulate a torn write: a full header promising more payload than
        # ever hit the disk.
        with open(tmp_path / "wal.log", "ab") as fh:
            fh.write(_HEADER.pack(1 << 20, 0) + b"partial payload")
        recovered = backend.reopen()
        assert recovered.recovered_torn_bytes > 0
        assert recovered.replayed_records == 2
        assert recovered.get("ns", "a") == b"1"
        assert recovered.get("ns", "b") == b"2"
        # The truncation is durable: the next open is clean.
        again = recovered.reopen()
        assert again.recovered_torn_bytes == 0
        assert again.get("ns", "b") == b"2"

    def test_corrupt_checksum_tail_discarded(self, tmp_path):
        backend = WalBackend(tmp_path)
        backend.put("ns", "a", b"1")
        backend.crash()
        wal = tmp_path / "wal.log"
        data = wal.read_bytes()
        wal.write_bytes(data + _HEADER.pack(4, 0xDEADBEEF) + b"junk")
        recovered = backend.reopen()
        assert recovered.recovered_torn_bytes > 0
        assert recovered.get("ns", "a") == b"1"

    def test_compaction_preserves_data_and_resets_log(self, tmp_path):
        backend = WalBackend(tmp_path, compact_every=3)
        for i in range(7):
            backend.put("ns", f"k{i}", str(i).encode())
        assert (tmp_path / "snapshot.bin").exists()
        recovered = backend.reopen()
        assert recovered.count("ns") == 7
        assert recovered.get("ns", "k6") == b"6"
        # The log only holds the commits since the last compaction.
        assert recovered.replayed_records < 7

    @pytest.mark.parametrize("history", [20, 80])
    def test_replay_tracks_the_log_and_compaction_empties_it(self, tmp_path, history):
        backend = WalBackend(tmp_path, compact_every=10**9)
        for i in range(history):
            backend.put("ns", f"k{i:05d}", b"x" * 64)
        recovered = backend.reopen()
        assert recovered.replayed_records == history
        recovered.compact()
        compacted = recovered.reopen()
        assert compacted.replayed_records == 0
        assert compacted.count("ns") == history

    def test_leftover_snapshot_tmp_is_ignored(self, tmp_path):
        backend = WalBackend(tmp_path)
        backend.put("ns", "k", b"v")
        backend.crash()
        (tmp_path / "snapshot.tmp").write_bytes(b"half-written snapshot")
        recovered = backend.reopen()
        assert recovered.get("ns", "k") == b"v"
        assert not (tmp_path / "snapshot.tmp").exists()

    def test_memory_backend_survives_reopen(self):
        """The memory backend's tables *are* the durable medium."""
        backend = MemoryBackend()
        backend.put("ns", "k", b"v")
        backend.crash()
        assert backend.reopen().get("ns", "k") == b"v"


# ---------------------------------------------------------------------------
# deterministic WAL codec
# ---------------------------------------------------------------------------
class TestWalCodec:
    OPS = [
        ("blocks", "0000000000000007", b"\x00" * 40),
        ("private", "pdccc\x00PDC1\x00p1", b"secret"),
        ("private", "pdccc\x00PDC1\x00p2", None),  # a delete
        ("meta", "", b""),  # empty key and empty value both legal
    ]

    def test_ops_round_trip_deterministically(self):
        raw = pack_ops(self.OPS)
        assert raw.startswith(OPS_MAGIC)
        assert unpack_ops(raw) == self.OPS
        assert pack_ops(self.OPS) == raw  # same ops, same bytes

    def test_tables_round_trip_and_insertion_order_independence(self):
        tables = {"b": {"k2": b"2", "k1": b"1"}, "a": {"x": b""}}
        reordered = {"a": {"x": b""}, "b": {"k1": b"1", "k2": b"2"}}
        raw = pack_tables(tables)
        assert raw.startswith(TABLES_MAGIC)
        assert pack_tables(reordered) == raw  # canonical: sorted emission
        assert unpack_tables(raw) == {"a": {"x": b""}, "b": {"k1": b"1", "k2": b"2"}}

    def test_every_truncation_of_a_framed_payload_raises(self):
        for raw, unpack in (
            (pack_ops(self.OPS), unpack_ops),
            (pack_tables({"ns": {"k": b"v" * 9}}), unpack_tables),
        ):
            for cut in range(len(raw)):
                with pytest.raises(CodecError):
                    unpack(raw[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CodecError):
            unpack_ops(pack_ops(self.OPS) + b"\x00")
        # For tables the trailing crc32 no longer matches the body.
        with pytest.raises(CodecError):
            unpack_tables(pack_tables({"ns": {"k": b"v"}}) + b"\x00\x00\x00\x00")

    def test_bit_flip_in_tables_fails_the_crc(self):
        raw = bytearray(pack_tables({"ns": {"key": b"value"}}))
        raw[len(TABLES_MAGIC) + 9] ^= 0x40
        with pytest.raises(CodecError):
            unpack_tables(bytes(raw))

    def test_framed_payloads_never_start_like_pickle(self):
        assert not pack_ops(self.OPS).startswith(b"\x80")
        assert not pack_tables({"ns": {"k": b"v"}}).startswith(b"\x80")

    def test_pickled_legacy_snapshot_and_records_are_rejected(self, tmp_path):
        """Only the struct framing is read: a pickled snapshot refuses to
        open, and a pickled record is cut off as a corrupt tail."""
        snapshot_dir = tmp_path / "snapshot"
        snapshot_dir.mkdir()
        (snapshot_dir / SNAPSHOT_FILE).write_bytes(
            pickle.dumps({"ns": {"old": b"row"}}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        with pytest.raises(StorageError):
            WalBackend(snapshot_dir)

        backend = WalBackend(tmp_path / "wal")
        backend.put("ns", "framed", b"kept")
        backend.crash()
        record = pickle.dumps(
            [("ns", "logged", b"wal-row")], protocol=pickle.HIGHEST_PROTOCOL
        )
        tail = _HEADER.pack(len(record), zlib.crc32(record)) + record
        with open(tmp_path / "wal" / WAL_FILE, "ab") as fh:
            fh.write(tail)
        recovered = backend.reopen()
        assert recovered.replayed_records == 1
        assert recovered.recovered_torn_bytes == len(tail)
        assert recovered.get("ns", "framed") == b"kept"
        assert recovered.get("ns", "logged") is None


class TestValueCodecs:
    """The deterministic framings for cross-peer store *values*.

    World-state metadata maps, missing-data records and committed private
    rwsets all ride snapshot packages between peers, so (like the WAL
    payloads) their values must decode without ever reaching ``pickle``.
    """

    WRITES = [("k1", b"v1", False), ("k2", None, True), ("", b"", False)]

    def test_bytes_map_round_trip_is_canonical(self):
        data = {"b": b"2", "a": b"", "": b"x"}
        raw = pack_bytes_map(data)
        assert raw.startswith(BYTES_MAP_MAGIC)
        assert not raw.startswith(b"\x80")
        assert unpack_bytes_map(raw) == data
        assert pack_bytes_map({"a": b"", "": b"x", "b": b"2"}) == raw

    def test_private_writes_round_trip(self):
        raw = pack_private_writes("cc", "PDC1", self.WRITES)
        assert raw.startswith(PRIVATE_WRITES_MAGIC)
        assert unpack_private_writes(raw) == ("cc", "PDC1", self.WRITES)

    def test_every_truncation_raises(self):
        for raw, unpack in (
            (pack_bytes_map({"name": b"value" * 3}), unpack_bytes_map),
            (pack_private_writes("cc", "PDC1", self.WRITES), unpack_private_writes),
        ):
            for cut in range(len(raw)):
                with pytest.raises(CodecError):
                    unpack(raw[:cut])
            with pytest.raises(CodecError):
                unpack(raw + b"\x00")

    def test_pickle_bytes_are_rejected_outright(self):
        for unpack in (unpack_bytes_map, unpack_private_writes):
            with pytest.raises(CodecError):
                unpack(pickle.dumps({"a": b"b"}, protocol=pickle.HIGHEST_PROTOCOL))

    def test_missing_record_round_trip_and_strictness(self):
        from repro.ledger.ledger import (
            MissingPrivateData,
            pack_missing_record,
            unpack_missing_record,
        )

        record = MissingPrivateData(
            tx_id="tx-1", block_num=7, namespace="cc", collection="PDC1"
        )
        raw = pack_missing_record(record)
        assert not raw.startswith(b"\x80")
        assert unpack_missing_record(raw) == record
        with pytest.raises(CodecError):
            unpack_missing_record(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        for cut in range(len(raw)):
            with pytest.raises(CodecError):
                unpack_missing_record(raw[:cut])

    def test_legacy_pickled_store_rows_are_rejected(self):
        """Peer-local rows are read under the same strict framings as the
        rows that travel between peers: a pickled row is a CodecError."""
        from repro.ledger.ledger import (
            MissingPrivateData,
            NS_MISSING,
            NS_PRIVATE_RWSETS,
        )
        from repro.ledger.world_state import NS_PUBLIC_META
        from repro.storage import compose_key

        ledger = PeerLedger()
        writes = PrivateCollectionWrites(
            namespace="cc",
            collection="PDC1",
            writes=(KVWrite(key="k", value=b"v"),),
        )
        missing = MissingPrivateData("tx-9", 3, "cc", "PDC1")
        ledger.backend.put(
            NS_PUBLIC_META, compose_key("cc", "k"), pickle.dumps({"m": b"old"})
        )
        ledger.backend.put(
            NS_PRIVATE_RWSETS,
            compose_key("tx-9", "cc", "PDC1"),
            pickle.dumps(writes),
        )
        ledger.backend.put(
            NS_MISSING, compose_key("tx-9", "cc", "PDC1"), pickle.dumps(missing)
        )
        with pytest.raises(CodecError):
            ledger.world_state.get_metadata("cc", "k", "m")
        with pytest.raises(CodecError):
            ledger.world_state.set_metadata("cc", "k", "m2", b"new")
        with pytest.raises(CodecError):
            ledger.committed_private_rwsets[("tx-9", "cc", "PDC1")]
        with pytest.raises(CodecError):
            ledger.rebuild()


#: Every struct-framed decoder, keyed by its magic prefix.
FRAMED_DECODERS = {
    OPS_MAGIC: unpack_ops,
    TABLES_MAGIC: unpack_tables,
    BYTES_MAP_MAGIC: unpack_bytes_map,
    PRIVATE_WRITES_MAGIC: unpack_private_writes,
}


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


#: Framing-shaped noise: small counts and lengths, tag bytes, and bytes
#: that are not UTF-8, so the decoders get past the magic and the
#: length checks instead of failing at the first u32.
_FRAME_NOISE = st.lists(
    st.one_of(
        st.binary(max_size=8),
        st.integers(min_value=0, max_value=6).map(_u32),
        st.sampled_from([b"\x00", b"\x01", b"\xff", b"\xc3\x28"]),
    ),
    max_size=12,
).map(b"".join)


_MANIFEST = SnapshotManifest(
    channel_id="mychannel",
    height=7,
    last_block_hash=b"\x01" * 32,
    state_hash="ab" * 32,
    collection_digests=(("cc", "PDC1", "cd" * 32),),
)
_MANIFEST_BYTES = _MANIFEST.signing_bytes()

#: JSON documents shaped like a manifest: its field names (and the
#: canonical encoder's bytes tag) holding arbitrary JSON values.
_MANIFEST_DOCS = st.dictionaries(
    st.sampled_from(sorted(json.loads(_MANIFEST_BYTES)) + ["$b"]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(["$b", "x"]), children, max_size=2),
        max_leaves=6,
    ),
)


def _decodes_or_codec_error(raw: bytes) -> None:
    for unpack in FRAMED_DECODERS.values():
        try:
            unpack(raw)
        except CodecError:
            pass


class TestDecodersFailTyped:
    """Any byte string decodes or raises the decoder's typed error —
    :class:`CodecError`, or :class:`SnapshotError` for the manifest —
    nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=64))
    def test_arbitrary_bytes(self, raw):
        _decodes_or_codec_error(raw)

    @settings(max_examples=400, deadline=None)
    @given(
        magic=st.sampled_from(sorted(FRAMED_DECODERS)),
        body=_FRAME_NOISE,
        sealed=st.booleans(),
    )
    @example(magic=OPS_MAGIC, body=_u32(1) + _u32(1) + b"\xff", sealed=False)
    @example(magic=TABLES_MAGIC, body=_u32(1) + _u32(1) + b"\xff", sealed=True)
    @example(magic=BYTES_MAP_MAGIC, body=_u32(1) + _u32(1) + b"\xff", sealed=False)
    @example(magic=PRIVATE_WRITES_MAGIC, body=_u32(1) + b"\xff", sealed=False)
    def test_magic_then_arbitrary_bytes(self, magic, body, sealed):
        raw = magic + body
        if sealed:  # a valid trailing crc32 lets unpack_tables parse the body
            raw += _u32(zlib.crc32(raw))
        _decodes_or_codec_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=64),
        _FRAME_NOISE.map(lambda body: BLOCK_MAGIC + body),
        # Sealed: a valid trailing crc32 lets the decoder parse the body.
        _FRAME_NOISE.map(lambda body: seal(BLOCK_MAGIC + body)),
        _FRAME_NOISE.map(lambda body: seal(BLOCK_MAGIC + b"\x00" * 8 + body)),
    ))
    @example(raw=seal(BLOCK_MAGIC + b"\x00" * 8 + _u32(0) + _u32(0) + _u32(1) + b"\xff"))
    def test_block_row_head(self, raw):
        try:
            unpack_block_row(raw)
        except CodecError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=64),
        _MANIFEST_DOCS.map(lambda doc: json.dumps(doc).encode("utf-8")),
        st.tuples(st.integers(0, len(_MANIFEST_BYTES) - 1), st.binary(max_size=3)).map(
            lambda edit: _MANIFEST_BYTES[:edit[0]] + edit[1] + _MANIFEST_BYTES[edit[0] + 1:]
        ),
    ))
    @example(raw=b"[]")
    @example(raw=b'{"channel": 1}')
    @example(raw=b"\xff")
    @example(raw=_MANIFEST_BYTES.replace(b'"height":7', b'"height":7.0'))
    def test_snapshot_manifest(self, raw):
        try:
            manifest = SnapshotManifest.from_signing_bytes(raw)
        except SnapshotError:
            return
        assert manifest.signing_bytes() == raw

    def test_snapshot_manifest_round_trips(self):
        manifest = SnapshotManifest.from_signing_bytes(_MANIFEST_BYTES)
        assert manifest == _MANIFEST


# ---------------------------------------------------------------------------
# crash-at-any-point durability
# ---------------------------------------------------------------------------
def _state_of(backend) -> dict[str, dict[str, bytes]]:
    return {
        ns: dict(backend.range(ns)) for ns in backend.namespaces()
    }


def _seed_backend(directory, commits: int = 6, compact_every: int = 10**9):
    """A WAL backend with ``commits`` multi-op batches and known contents."""
    backend = WalBackend(directory, compact_every=compact_every)
    for i in range(commits):
        batch = WriteBatch()
        batch.put("ns", f"k{i:02d}", bytes([i]) * (i + 1))
        batch.put("other", "rolling", str(i).encode())
        if i >= 2:
            batch.delete("ns", f"k{i - 2:02d}")
        backend.commit(batch)
    return backend


class TestCrashAtEveryByte:
    """Kill the engine at every byte boundary; recovery must be exact.

    The model: a WAL directory is (snapshot, log); recovery applies the
    snapshot then the longest prefix of complete, checksum-valid log
    records.  These sweeps enumerate *every* possible torn-write length
    for each crash window — mid-append, mid-compaction (before the
    atomic rename), and between the rename and the log reset — and
    assert the recovered state matches that model exactly, never a
    half-applied batch and never an error on a recoverable file.
    """

    def _prefix_states(self, seed_dir, tmp_path):
        """Expected table state after replaying the first N log records."""
        states = []
        replay = WalBackend(tmp_path / "model", compact_every=10**9)
        states.append(_state_of(replay))
        for _, _, payload in self._records((seed_dir / WAL_FILE).read_bytes()):
            batch = WriteBatch()
            for namespace, key, value in unpack_ops(payload):
                if value is None:
                    batch.delete(namespace, key)
                else:
                    batch.put(namespace, key, value)
            replay.commit(batch)
            states.append(_state_of(replay))
        replay.close()
        return states

    @staticmethod
    def _records(data: bytes):
        """``(start, end, payload)`` for each complete record in a log."""
        offset = 0
        while offset + _HEADER.size <= len(data):
            length, _crc = _HEADER.unpack(data[offset : offset + _HEADER.size])
            end = offset + _HEADER.size + length
            if end > len(data):
                break
            yield offset, end, data[offset + _HEADER.size : end]
            offset = end

    def test_torn_log_at_every_byte_recovers_record_prefix(self, tmp_path):
        seed_dir = tmp_path / "seed"
        _seed_backend(seed_dir).crash()
        full_log = (seed_dir / WAL_FILE).read_bytes()
        boundaries = [0] + [end for _, end, _ in self._records(full_log)]
        states = self._prefix_states(seed_dir, tmp_path)
        assert len(states) == len(boundaries)

        for cut in range(len(full_log) + 1):
            work = tmp_path / f"cut{cut}"
            work.mkdir()
            (work / WAL_FILE).write_bytes(full_log[:cut])
            recovered = WalBackend(work)
            # The longest complete-record prefix at or before the cut.
            complete = max(b for b in boundaries if b <= cut)
            expected = states[boundaries.index(complete)]
            assert _state_of(recovered) == expected, f"cut at byte {cut}"
            assert recovered.recovered_torn_bytes == cut - complete
            assert (work / WAL_FILE).stat().st_size == complete
            recovered.crash()

    def test_crash_mid_compaction_at_every_byte(self, tmp_path):
        """Death while writing ``snapshot.tmp``: the log still holds all."""
        seed_dir = tmp_path / "seed"
        backend = _seed_backend(seed_dir)
        reference = _state_of(backend)
        tmp_bytes = pack_tables(backend._tables.snapshot())
        backend.crash()
        log_bytes = (seed_dir / WAL_FILE).read_bytes()

        for cut in range(len(tmp_bytes) + 1):
            work = tmp_path / f"tmp{cut}"
            work.mkdir()
            (work / WAL_FILE).write_bytes(log_bytes)
            (work / SNAPSHOT_TMP).write_bytes(tmp_bytes[:cut])
            recovered = WalBackend(work)
            assert _state_of(recovered) == reference, f"tmp cut at byte {cut}"
            assert not (work / SNAPSHOT_TMP).exists()
            recovered.crash()

    def test_crash_between_rename_and_log_reset(self, tmp_path):
        """The post-rename window: full snapshot *and* full log coexist.

        Replaying the stale log over the fresh snapshot must be
        idempotent — ops are absolute puts/deletes.
        """
        seed_dir = tmp_path / "seed"
        backend = _seed_backend(seed_dir)
        reference = _state_of(backend)
        snapshot_bytes = pack_tables(backend._tables.snapshot())
        backend.crash()

        work = tmp_path / "window"
        shutil.copytree(seed_dir, work)
        (work / SNAPSHOT_FILE).write_bytes(snapshot_bytes)
        recovered = WalBackend(work)
        assert _state_of(recovered) == reference
        # And the double-crash: recover, crash again, recover again.
        recovered.crash()
        assert _state_of(WalBackend(work)) == reference

    def test_truncated_snapshot_always_detected_never_misread(self, tmp_path):
        """A damaged ``snapshot.bin`` (no tmp, post-reset log) must raise.

        Unlike the log — whose tail legitimately tears — the snapshot is
        only ever installed by an atomic rename, so any truncation is
        corruption and recovery must refuse rather than guess.
        """
        seed_dir = tmp_path / "seed"
        backend = _seed_backend(seed_dir, compact_every=10**9)
        backend.compact()
        backend.crash()
        snapshot_bytes = (seed_dir / SNAPSHOT_FILE).read_bytes()
        reference_dir = tmp_path / "ref"
        reference_dir.mkdir()
        (reference_dir / SNAPSHOT_FILE).write_bytes(snapshot_bytes)
        reference = _state_of(WalBackend(reference_dir))

        for cut in range(len(snapshot_bytes)):
            work = tmp_path / f"snap{cut}"
            work.mkdir()
            (work / SNAPSHOT_FILE).write_bytes(snapshot_bytes[:cut])
            with pytest.raises(StorageError):
                WalBackend(work)
        # The untruncated snapshot still opens to the full state.
        assert _state_of(WalBackend(reference_dir)) == reference


# ---------------------------------------------------------------------------
# BlockToLive expiry boundary
# ---------------------------------------------------------------------------
class TestBtlExpiryBoundary:
    NS, COL, KEY = "cc", "PDC1", "k"

    def _committed_ledger(self, block_num: int, btl: int) -> PeerLedger:
        ledger = PeerLedger()
        batch = ledger.new_batch()
        ledger.private_data.put(
            self.NS, self.COL, self.KEY, b"secret", Version(block_num, 0), batch=batch
        )
        ledger.private_hashes.put_plain(
            self.NS, self.COL, self.KEY, b"secret", Version(block_num, 0), batch=batch
        )
        ledger.note_private_commit(
            self.NS, self.COL, self.KEY, block_num, btl=btl, batch=batch
        )
        ledger.commit_batch(batch)
        return ledger

    def _has_plain(self, ledger: PeerLedger) -> bool:
        return ledger.private_data.get(self.NS, self.COL, self.KEY) is not None

    def test_survives_exactly_through_committed_plus_btl(self):
        """btl=3 at block 2 → alive through block 5, purged committing block 6."""
        ledger = self._committed_ledger(block_num=2, btl=3)
        # Committing block N runs the purge at the post-commit height N + 1.
        assert ledger.purge_expired_private(5 + 1) == 0
        assert self._has_plain(ledger)
        assert ledger.purge_expired_private(6 + 1) == 1
        assert not self._has_plain(ledger)

    def test_hash_outlives_the_purge(self):
        ledger = self._committed_ledger(block_num=1, btl=1)
        ledger.purge_expired_private(10)
        assert not self._has_plain(ledger)
        entry = ledger.private_hashes.get(self.NS, self.COL, hash_key(self.KEY))
        assert entry is not None and entry.value_hash == hash_value(b"secret")

    def test_btl_zero_never_expires(self):
        ledger = self._committed_ledger(block_num=0, btl=0)
        assert ledger.purge_expired_private(10**6) == 0
        assert self._has_plain(ledger)

    def test_recommit_in_same_batch_extends_the_lease(self):
        """A key re-written in the purging block must survive the purge."""
        ledger = self._committed_ledger(block_num=2, btl=3)
        batch = ledger.new_batch()
        ledger.private_data.put(
            self.NS, self.COL, self.KEY, b"fresh", Version(9, 0), batch=batch
        )
        ledger.note_private_commit(self.NS, self.COL, self.KEY, 9, btl=3, batch=batch)
        # The old expiry (2+3+1 = 6) is now due, but the batch carries a
        # fresh lease staged earlier in the same block.
        assert ledger.purge_expired_private(10, batch=batch) == 0
        ledger.commit_batch(batch)
        assert ledger.private_data.get(self.NS, self.COL, self.KEY).value == b"fresh"
        # The new lease expires on its own schedule (committing block 9+3+1).
        assert ledger.purge_expired_private(13 + 1) == 1

    def test_expiry_index_survives_recovery(self, tmp_path):
        ledger = PeerLedger(WalBackend(tmp_path))
        batch = ledger.new_batch()
        ledger.private_data.put(self.NS, self.COL, self.KEY, b"v", Version(2, 0), batch=batch)
        ledger.note_private_commit(self.NS, self.COL, self.KEY, 2, btl=3, batch=batch)
        ledger.commit_batch(batch)
        ledger.crash()
        ledger.reopen()
        assert self._has_plain(ledger)
        assert ledger.purge_expired_private(6 + 1) == 1  # rebuilt index still fires
        assert not self._has_plain(ledger)


# ---------------------------------------------------------------------------
# transient retention boundary
# ---------------------------------------------------------------------------
def _writes(key: str = "k", value: bytes = b"v") -> PrivateCollectionWrites:
    return PrivateCollectionWrites(
        namespace="ns", collection="col", writes=(KVWrite(key=key, value=value),)
    )


class TestTransientRetentionBoundary:
    def test_entry_survives_exactly_retention_blocks(self):
        store = TransientStore(retention_blocks=5)
        store.put("tx1", _writes(), height=10)
        # Purged only once the height horizon strictly passes 10 + 5.
        assert store.purge_below(15) == 0
        assert store.has("tx1", "ns", "col")
        assert store.purge_below(16) == 1
        assert not store.has("tx1", "ns", "col")

    def test_purge_is_incremental_not_a_scan(self):
        store = TransientStore(retention_blocks=2)
        for height in (1, 2, 3, 10):
            store.put(f"tx{height}", _writes(), height=height)
        assert store.purge_below(6) == 3  # heights 1-3 expire, 10 stays
        assert len(store) == 1
        assert store.has("tx10", "ns", "col")

    def test_reput_at_newer_height_resets_retention(self):
        store = TransientStore(retention_blocks=2)
        store.put("tx1", _writes(), height=1)
        store.put("tx1", _writes(), height=9)  # gossip redelivery, newer height
        assert store.purge_below(8) == 0  # stale heap entry skipped
        assert store.has("tx1", "ns", "col")

    def test_indexes_rebuilt_after_recovery(self, tmp_path):
        backend = WalBackend(tmp_path)
        store = TransientStore(retention_blocks=5, backend=backend)
        store.put("tx1", _writes(), height=3)
        recovered = TransientStore(retention_blocks=5, backend=backend.reopen())
        assert recovered.has("tx1", "ns", "col")
        assert recovered.get("tx1", "ns", "col").collection == "col"
        recovered.remove_transaction("tx1")
        assert not recovered.has("tx1", "ns", "col")
        assert len(recovered) == 0


# ---------------------------------------------------------------------------
# crash-mid-block: the atomic batch promise
# ---------------------------------------------------------------------------
class TestCrashMidBlock:
    def test_partial_block_batch_never_surfaces(self, tmp_path):
        """Crash between staging and commit → none of the block's writes land."""
        ledger = PeerLedger(WalBackend(tmp_path))
        ledger.world_state.put("cc", "before", b"1", Version(0, 0))
        batch = ledger.new_batch()
        ledger.world_state.put("cc", "pub", b"2", Version(1, 0), batch=batch)
        ledger.private_data.put("cc", "PDC1", "k", b"s", Version(1, 0), batch=batch)
        ledger.note_private_commit("cc", "PDC1", "k", 1, btl=4, batch=batch)
        ledger.crash()  # dies before commit_batch
        ledger.reopen()
        assert ledger.world_state.get("cc", "before").value == b"1"
        assert ledger.world_state.get("cc", "pub") is None
        assert ledger.private_data.get("cc", "PDC1", "k") is None
        # The expiry index holds no phantom lease for the lost write.
        assert ledger.purge_expired_private(100) == 0

    def test_committed_block_batch_fully_recovers(self, tmp_path):
        ledger = PeerLedger(WalBackend(tmp_path))
        batch = ledger.new_batch()
        ledger.world_state.put("cc", "pub", b"2", Version(1, 0), batch=batch)
        ledger.private_data.put("cc", "PDC1", "k", b"s", Version(1, 0), batch=batch)
        ledger.transient_store.put("tx9", _writes(), height=1, batch=batch)
        ledger.commit_batch(batch)
        ledger.crash()
        ledger.reopen()
        assert ledger.world_state.get("cc", "pub").value == b"2"
        assert ledger.private_data.get("cc", "PDC1", "k").value == b"s"
        assert ledger.transient_store.has("tx9", "ns", "col")


# ---------------------------------------------------------------------------
# runtime crash/restart + the durability invariant
# ---------------------------------------------------------------------------
def _runtime_network(state_backend: str, tmp_path, batch_size: int = 1):
    reset_ca_instance_counter()
    reset_nonce_counter()
    orgs = [Organization("Org1MSP"), Organization("Org2MSP")]
    channel = ChannelConfig(channel_id="crashchan", organizations=orgs)
    channel.deploy_chaincode(
        "assetcc", endorsement_policy="OR('Org1MSP.member', 'Org2MSP.member')"
    )
    net = FabricNetwork(
        channel=channel,
        batch_size=batch_size,
        state_backend=state_backend,
        state_dir=str(tmp_path) if state_backend == "wal" else None,
    )
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    runtime = net.attach_runtime(seed=7)
    return net, runtime


class TestRuntimeCrashRestart:
    @pytest.mark.parametrize("state_backend", ["memory", "wal"])
    def test_crashed_peer_rejoins_via_catch_up(self, state_backend, tmp_path):
        net, runtime = _runtime_network(state_backend, tmp_path)
        client = net.client("Org1MSP")
        endorser = [net.peers()[0]]
        client.submit_transaction(
            "assetcc", "create_asset", ["a0", "1"], endorsing_peers=endorser
        ).raise_for_status()

        victim = net.peers()[1]
        runtime.crash_peer(victim.name)
        assert victim.name in runtime.crashed_peers()
        # Blocks delivered while down are dropped, not queued.
        pendings = [
            client.submit_async("assetcc", "create_asset", [f"a{i}", "1"],
                                endorsing_peers=endorser)
            for i in range(1, 4)
        ]
        runtime.run()
        assert runtime.crash_drops > 0
        assert victim.ledger.height < net.peers()[0].ledger.height

        runtime.restart_peer(victim.name)
        runtime.run()
        # Results only resolve once every peer committed — incl. the rejoiner.
        assert all(p.result().status is ValidationCode.VALID for p in pendings)
        assert victim.name not in runtime.crashed_peers()
        assert victim.ledger.height == net.peers()[0].ledger.height
        assert victim.query_public("assetcc", "asset:a3") == b"1"
        assert (
            victim.query_public("assetcc", "asset:a3")
            == net.peers()[0].query_public("assetcc", "asset:a3")
        )

    @pytest.mark.parametrize("state_backend", ["memory", "wal"])
    def test_recovery_monitor_passes_on_honest_recovery(self, state_backend, tmp_path):
        net, runtime = _runtime_network(state_backend, tmp_path)
        monitor = RecoveryMonitor(net.channel, net.features)
        monitor.attach(runtime)
        client = net.client("Org1MSP")
        endorser = [net.peers()[0]]
        client.submit_transaction(
            "assetcc", "create_asset", ["a0", "1"], endorsing_peers=endorser
        ).raise_for_status()
        victim = net.peers()[1]
        runtime.crash_peer(victim.name)
        runtime.restart_peer(victim.name)
        assert monitor.recoveries == 1
        assert monitor.violations == []

    def test_recovery_monitor_catches_lost_durable_state(self, tmp_path):
        """Negative control: corrupt the durable medium while the peer is
        down; the durability invariant must flag the recovery."""
        net, runtime = _runtime_network("memory", tmp_path)
        monitor = RecoveryMonitor(net.channel, net.features)
        monitor.attach(runtime)
        client = net.client("Org1MSP")
        client.submit_transaction(
            "assetcc", "create_asset", ["a0", "1"],
            endorsing_peers=[net.peers()[0]],
        ).raise_for_status()
        victim = net.peers()[1]
        runtime.crash_peer(victim.name)
        # Bit-rot on disk: flip the committed value behind the ledger's back.
        from repro.storage import compose_key
        from repro.storage.codec import pack_versioned

        victim.ledger.backend.put(
            "public", compose_key("assetcc", "a0"),
            pack_versioned(b"corrupted", Version(0, 0)),
        )
        runtime.restart_peer(victim.name)
        assert monitor.recoveries == 1
        assert any("durability" in str(v) for v in monitor.violations)

    def test_crashed_peer_refuses_endorsement(self, tmp_path):
        from repro.common.errors import EndorsementError

        net, runtime = _runtime_network("memory", tmp_path)
        victim = net.peers()[0]
        runtime.crash_peer(victim.name)
        client = net.client("Org1MSP")
        with pytest.raises(EndorsementError):
            client.submit_transaction(
                "assetcc", "create_asset", ["x", "1"], endorsing_peers=[victim]
            )


# ---------------------------------------------------------------------------
# simulation-level durability sweep (crash_restart fault windows live here)
# ---------------------------------------------------------------------------
class TestSimulatedRecovery:
    def test_seed_with_recovery_holds_all_invariants(self):
        # Seed 5 draws a crash_restart fault window at 40 ops.
        report = run_seed(5, 40)
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.stats["recoveries"] >= 1
        assert report.stats["crash_drops"] >= 0


# ---------------------------------------------------------------------------
# stored rows: typed errors and the cold-reopen round trip
# ---------------------------------------------------------------------------
def _stored_rows() -> list:
    """``(name, row, decode, expected)`` for a real block's head and tail
    rows, a transient row and the prune-meta row of a committed chain."""
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    peer1, peer2 = net.peer_of(1), net.peer_of(2)
    results = [
        net.client_of(1).submit_transaction(
            net.chaincode_id, "set_private", [net.collection, key],
            transient={"value": value}, endorsing_peers=[peer1, peer2],
        )
        for key, value in (("k1", b"v" * 40), ("k2", b"\x00\xff"))
    ]
    for result in results:
        result.raise_for_status()
    ledger = peer1.ledger
    validated = ledger.blockchain.block(0)
    block_key = f"{0:016d}"
    head = ledger.backend.get(NS_BLOCKS, block_key)
    tail = ledger.backend.get(NS_BLOCKS_TXS, block_key)
    tx_id = validated.block.transactions[0].tx_id
    writes = ledger.committed_private_rwsets[(tx_id, net.chaincode_id, net.collection)]
    transient_backend = MemoryBackend()
    TransientStore(backend=transient_backend).put(tx_id, writes, height=7)
    assert ledger.blockchain.prune_to(1) == 1
    anchor = validated.block.header.block_hash()
    header = validated.block.header
    return [
        ("head", head, unpack_block_row, (header, validated.flags)),
        ("tail", tail, lambda raw: Block.from_storage(header, raw).transactions,
         validated.block.transactions),
        ("transient", next(iter(transient_backend.range(NS_TRANSIENT)))[1],
         unpack_transient_row, (7, writes)),
        ("prune meta", ledger.backend.get(NS_BLOCKS_META, "prune"), unpack_prune_meta,
         (1, anchor, 0)),
    ]


class TestStoredRowsFailTyped:
    """Every truncation and a seeded set of single-byte flips of each kind
    of stored row either raises :class:`CodecError` or decodes to the
    original — no other exception escapes."""

    FLIPS_PER_ROW = 400

    def test_truncations_and_flips(self):
        rng = random.Random(37)
        cases = 0
        for name, row, decode, expected in _stored_rows():
            assert decode(row) == expected, name
            mutants = [row[:cut] for cut in range(len(row))]
            for position in rng.sample(range(len(row)), min(len(row), self.FLIPS_PER_ROW)):
                flipped = bytearray(row)
                flipped[position] ^= rng.randrange(1, 256)
                mutants.append(bytes(flipped))
            for mutant in mutants:
                try:
                    decoded = decode(mutant)
                except CodecError:
                    continue
                assert decoded == expected, (name, mutant)
            cases += len(mutants)
        assert cases > 1600


def _wal_snapshot_prune_config(seed: int) -> SimulationConfig:
    """Ten WAL peers, two collections, snapshots every 4 blocks + pruning."""
    return SimulationConfig(
        seed=seed, ops=30, org_count=5, peers_per_org=2,
        pdc1_members=("Org1MSP", "Org2MSP", "Org3MSP"),
        pdc2_members=("Org2MSP", "Org3MSP", "Org4MSP"),
        workload="mixed", plan_rate=0.5, mean_gap=1.0, batch_size=3,
        batch_timeout=2.0, state_backend="wal", snapshot_every=4, prune=True,
    )


class TestColdReopenRoundTrip:
    def _run(self, monkeypatch):
        finished = []
        real_checks = harness.run_quiescence_checks

        def checks(sim, outcomes):
            finished.append(sim)
            return real_checks(sim, outcomes)

        monkeypatch.setattr(harness, "run_quiescence_checks", checks)
        config = _wal_snapshot_prune_config(seed=3)
        report = harness.execute(config, *harness.generate(config))
        assert report.ok, [str(v) for v in report.violations[:3]]
        return finished[0]

    def test_every_block_decodes_to_the_original_envelopes(self, monkeypatch):
        sim = self._run(monkeypatch)
        originals = sim.network.orderer.delivered_blocks
        pairs, archived = [], 0
        for peer in sim.all_peers():
            peer.ledger.crash()
            peer.ledger.reopen()  # a new WAL backend over the files
            chain = peer.ledger.blockchain
            archived += chain.genesis_offset - chain.archive_base
            for validated in chain.all_blocks():
                original = originals[validated.number]
                assert validated.block == original
                pairs += zip(validated.block.transactions, original.transactions)
        assert archived > 0 and pairs
        clear_serialization_memos()  # re-encode both sides from their fields
        assert all(tx.signed_bytes() == orig.signed_bytes() for tx, orig in pairs)

    def test_a_flipped_byte_in_a_stored_tail_fails_the_reopen(self, monkeypatch):
        sim = self._run(monkeypatch)
        peer = sim.all_peers()[0]
        key, tail = next(iter(peer.ledger.backend.range(NS_BLOCKS_TXS)))
        flipped = bytearray(tail)
        flipped[len(flipped) // 2] ^= 0x20
        peer.ledger.backend.put(NS_BLOCKS_TXS, key, bytes(flipped))
        peer.ledger.crash()
        with pytest.raises(CodecError):
            peer.ledger.reopen()
