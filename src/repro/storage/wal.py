"""The persistent storage engine: write-ahead log + compacted snapshots.

Layout of a backend directory::

    snapshot.bin   framed {namespace: {key: value}} — the compacted base
    wal.log        append-only records, one per committed batch

Each WAL record frames one atomic batch::

    [4-byte little-endian payload length][4-byte crc32][payload]

where the payload is the deterministically framed op list
``[(namespace, key, value|None)]`` (``codec.pack_ops``).  Commit = append
record, flush, apply to the in-memory tables.  Recovery = load the
snapshot, then replay records until the log ends *or* a record is torn
(truncated mid-write) or fails its checksum — the file is then truncated
back to the last complete record, so a crash mid-batch can never surface
half a block.  Every ``compact_every`` commits the tables are rewritten
as a fresh snapshot (tmp file + atomic rename) and the log is reset;
replaying a log that predates the rename is idempotent because ops are
absolute puts/deletes.

Snapshot and record payloads are read only under the ``codec`` struct
framing, so a corrupt or hostile snapshot file can fail a checksum but
never execute code.  A snapshot in any other framing is a
:class:`StorageError`; a record in any other framing is a corrupt tail.

Stdlib only: ``struct`` + ``zlib.crc32``.  By default commits
``flush()`` to the OS (surviving simulated *process* crashes); set
``sync="fsync"`` to also survive machine crashes at real-fsync cost.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, Optional

from repro.storage.backend import KVBackend, SortedTables, StorageError, WriteBatch
from repro.storage.codec import (
    CodecError,
    pack_ops,
    pack_tables,
    unpack_ops,
    unpack_tables,
)

SNAPSHOT_FILE = "snapshot.bin"
SNAPSHOT_TMP = "snapshot.tmp"
WAL_FILE = "wal.log"

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

DEFAULT_COMPACT_EVERY = 512


class WalBackend(KVBackend):
    """Append-only WAL engine with snapshot compaction and replay-on-open."""

    kind = "wal"

    def __init__(
        self,
        directory: str | Path,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        sync: str = "flush",
    ) -> None:
        if sync not in ("flush", "fsync"):
            raise StorageError(f"unknown sync mode {sync!r} (flush|fsync)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._compact_every = compact_every
        self._sync_mode = sync
        self._tables = SortedTables()
        self._closed = False
        #: Bytes of torn/corrupt log tail discarded during recovery (0 on a
        #: clean open) — exposed so callers can report detected truncation.
        self.recovered_torn_bytes = 0
        #: WAL records replayed during recovery (before this session's own).
        self.replayed_records = 0
        self._load_snapshot()
        self._replay_wal()
        self._wal = open(self._wal_path, "ab")
        self._commits_since_compaction = self.replayed_records

    # -- paths ---------------------------------------------------------------
    @property
    def _wal_path(self) -> Path:
        return self.directory / WAL_FILE

    @property
    def _snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_FILE

    # -- recovery ------------------------------------------------------------
    def _load_snapshot(self) -> None:
        tmp = self.directory / SNAPSHOT_TMP
        if tmp.exists():  # a compaction died before its atomic rename
            tmp.unlink()
        if not self._snapshot_path.exists():
            return
        raw = self._snapshot_path.read_bytes()
        try:
            self._tables.load(unpack_tables(raw))
        except CodecError as exc:
            raise StorageError(
                f"corrupt snapshot {self._snapshot_path}: {exc}"
            ) from exc

    def _replay_wal(self) -> None:
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        offset = 0
        valid_end = 0
        while True:
            header = data[offset : offset + _HEADER.size]
            if len(header) < _HEADER.size:
                break  # end of log, or a torn header
            length, checksum = _HEADER.unpack(header)
            payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
            if len(payload) < length:
                break  # torn record: the batch never finished writing
            if zlib.crc32(payload) != checksum:
                break  # corrupt tail
            try:
                ops = unpack_ops(payload)
            except CodecError:
                break
            self._tables.apply(ops)
            self.replayed_records += 1
            offset += _HEADER.size + length
            valid_end = offset
        if valid_end < len(data):
            # Recover to the last complete record, never silently misread.
            self.recovered_torn_bytes = len(data) - valid_end
            with open(self._wal_path, "r+b") as fh:
                fh.truncate(valid_end)

    # -- reads ---------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[bytes]:
        return self._tables.get(namespace, key)

    def range(
        self, namespace: str, start: str = "", end: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        return self._tables.scan(namespace, start, end)

    def count(self, namespace: str) -> int:
        return self._tables.count(namespace)

    def namespaces(self) -> list[str]:
        return self._tables.namespaces()

    # -- writes --------------------------------------------------------------
    def commit(self, batch: WriteBatch) -> None:
        if self._closed:
            raise StorageError(f"backend at {self.directory} is closed")
        if not batch.ops:
            batch.run_callbacks()
            return
        payload = pack_ops(batch.ops)
        self._wal.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._wal.write(payload)
        self._wal.flush()
        if self._sync_mode == "fsync":
            os.fsync(self._wal.fileno())
        # The record is durable: apply, notify, maybe compact.
        self._tables.apply(batch.ops)
        batch.run_callbacks()
        self._commits_since_compaction += 1
        if self._commits_since_compaction >= self._compact_every:
            self.compact()

    def compact(self) -> None:
        """Fold the log into a fresh snapshot and reset the WAL."""
        tmp = self.directory / SNAPSHOT_TMP
        with open(tmp, "wb") as fh:
            fh.write(pack_tables(self._tables.snapshot()))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)  # atomic: old or new, never half
        # Only after the snapshot is durable may the log be reset; a crash
        # in between replays ops the snapshot already holds — idempotent.
        self._wal.close()
        self._wal = open(self._wal_path, "wb")
        self._commits_since_compaction = 0

    def sync(self) -> None:
        if not self._closed:
            self._wal.flush()
            os.fsync(self._wal.fileno())

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._wal.flush()
            self._wal.close()
            self._closed = True

    def crash(self) -> None:
        """Process death: drop the handle; only flushed records survive."""
        if not self._closed:
            self._wal.close()
            self._closed = True

    def reopen(self) -> "WalBackend":
        self.crash()
        return WalBackend(
            self.directory, compact_every=self._compact_every, sync=self._sync_mode
        )
