"""Codecs between ledger store entries and backend byte values.

The backends store opaque ``bytes``; these helpers own the framing.
Versioned entries use a fixed 16-byte header (two little-endian u64s for
``(block_num, tx_num)``) followed by the raw value — decoding is a slice,
not a parse.  Every other row is a ``struct`` framing, most behind a
magic prefix: a WAL batch's op list (``pack_ops``), a compacted table
snapshot (``pack_tables``), key metadata (``pack_bytes_map``) and one
collection's private writes (``pack_private_writes``) here; a block's
head row, its transaction tail and the prune metadata
(``ledger/blockchain.py``, ``ledger/block.py``), a transient entry
(``ledger/transient_store.py``) and the snapshot records
(``ledger/snapshot.py``) beside the stores that own them.  A block's
tail holds each envelope's signed bytes — the canonical encoding the
orderer hashed into the header's data hash — so a stored transaction has
exactly one encoding.

No decoder here, or anywhere in the package, can execute code: a
corrupt or adversarial row raises :class:`CodecError` (a
``ValueError``) instead of reaching a general-purpose deserializer.
A table snapshot, a block's head row, a transient row and the prune
metadata carry a trailing crc32 (:func:`seal` / :func:`unseal`), so a
flipped byte is an error, not a different value; a block's tail is
checked against the data hash in its head instead.  A magic's first
byte is ``0x01``, which is not the start of a ``pickle`` stream either.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Optional

from repro.ledger.version import Version

_VERSION = struct.Struct("<QQ")
_PAIR = struct.Struct("<QQ")
_U32 = struct.Struct("<I")

#: Byte length of a packed ``(u64, u64)`` pair.
U64_PAIR_SIZE = _PAIR.size

#: Magic prefixes for the deterministic framings (first byte 0x01).
OPS_MAGIC = b"\x01ROP1"
TABLES_MAGIC = b"\x01RTB1"
BYTES_MAP_MAGIC = b"\x01RMM1"
PRIVATE_WRITES_MAGIC = b"\x01RPW1"


class CodecError(ValueError):
    """A byte payload does not decode under the expected framing."""


def pack_versioned(value: bytes, version: Version) -> bytes:
    return _VERSION.pack(version.block_num, version.tx_num) + value


def unpack_versioned(raw: bytes) -> tuple[bytes, Version]:
    block_num, tx_num = _VERSION.unpack_from(raw)
    return raw[_VERSION.size :], Version(block_num, tx_num)


def pack_u64_pair(first: int, second: int) -> bytes:
    return _PAIR.pack(first, second)


def unpack_u64_pair(raw: bytes) -> tuple[int, int]:
    return _PAIR.unpack(raw)


def seal(body: bytes) -> bytes:
    """``body`` followed by its crc32."""
    return body + _U32.pack(zlib.crc32(body))


def unseal(raw: bytes, what: str) -> bytes:
    """The body of a :func:`seal`-ed payload; a bad checksum is a
    :class:`CodecError` naming ``what``."""
    if len(raw) < _U32.size:
        raise CodecError(f"{what} truncated before its checksum")
    body = raw[: -_U32.size]
    if zlib.crc32(body) != _U32.unpack(raw[-_U32.size :])[0]:
        raise CodecError(f"{what} failed its crc32 check")
    return body


# -- deterministic framings ---------------------------------------------------
def pack_str(out: list, text: str) -> None:
    """Append a length-prefixed UTF-8 string to an output chunk list."""
    encoded = text.encode("utf-8")
    out.append(_U32.pack(len(encoded)))
    out.append(encoded)


class Reader:
    """Bounds-checked cursor over a byte payload."""

    def __init__(self, raw: bytes, offset: int = 0) -> None:
        self._raw = raw
        self._offset = offset

    def take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._raw):
            raise CodecError(
                f"payload truncated: need {count} bytes at {self._offset}, "
                f"have {len(self._raw) - self._offset}"
            )
        chunk = self._raw[self._offset : end]
        self._offset = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(_U32.size))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string is not valid UTF-8: {exc}") from exc

    def done(self) -> bool:
        return self._offset == len(self._raw)


def pack_bytes_map(data: dict[str, bytes]) -> bytes:
    """Frame a ``{name: bytes}`` map deterministically (sorted names).

    The framing behind world-state key metadata: the rows travel inside
    snapshot packages and are digested on the receiving peer, so they
    must decode without ever reaching ``pickle``.
    """
    out = [BYTES_MAP_MAGIC, _U32.pack(len(data))]
    for name in sorted(data):
        pack_str(out, name)
        value = data[name]
        out.append(_U32.pack(len(value)))
        out.append(value)
    return b"".join(out)


def unpack_bytes_map(raw: bytes) -> dict[str, bytes]:
    if not raw.startswith(BYTES_MAP_MAGIC):
        raise CodecError("bytes map lacks the deterministic-framing magic")
    reader = Reader(raw, len(BYTES_MAP_MAGIC))
    data: dict[str, bytes] = {}
    for _ in range(reader.u32()):
        name = reader.string()
        data[name] = reader.take(reader.u32())
    if not reader.done():
        raise CodecError("trailing bytes after the framed bytes map")
    return data


def pack_private_writes(
    namespace: str,
    collection: str,
    writes: Iterable[tuple[str, Optional[bytes], bool]],
) -> bytes:
    """Frame one collection's plaintext writes ``[(key, value|None, is_delete)]``.

    The value framing of the committed private-rwset archive.  Archive
    rows ride snapshot packages between peers (they are what
    reconciliation serves), so the framing is a pure struct codec — a
    corrupt or adversarial row raises :class:`CodecError` instead of
    reaching a deserializer that can execute code.
    """
    items = list(writes)
    out = [PRIVATE_WRITES_MAGIC]
    pack_str(out, namespace)
    pack_str(out, collection)
    out.append(_U32.pack(len(items)))
    for key, value, is_delete in items:
        pack_str(out, key)
        if is_delete:
            out.append(b"\x00")
        else:
            if value is None:
                raise CodecError(f"non-delete private write {key!r} has no value")
            out.append(b"\x01")
            out.append(_U32.pack(len(value)))
            out.append(value)
    return b"".join(out)


def unpack_private_writes(
    raw: bytes,
) -> tuple[str, str, list[tuple[str, Optional[bytes], bool]]]:
    if not raw.startswith(PRIVATE_WRITES_MAGIC):
        raise CodecError("private writes lack the deterministic-framing magic")
    reader = Reader(raw, len(PRIVATE_WRITES_MAGIC))
    namespace = reader.string()
    collection = reader.string()
    writes: list[tuple[str, Optional[bytes], bool]] = []
    for _ in range(reader.u32()):
        key = reader.string()
        tag = reader.take(1)
        if tag == b"\x00":
            writes.append((key, None, True))
        elif tag == b"\x01":
            writes.append((key, reader.take(reader.u32()), False))
        else:
            raise CodecError(f"unknown private-write tag {tag!r}")
    if not reader.done():
        raise CodecError("trailing bytes after the framed private writes")
    return namespace, collection, writes


def pack_ops(ops: Iterable[tuple[str, str, Optional[bytes]]]) -> bytes:
    """Frame one batch's op list ``[(namespace, key, value|None)]``."""
    items = list(ops)
    out = [OPS_MAGIC, _U32.pack(len(items))]
    for namespace, key, value in items:
        pack_str(out, namespace)
        pack_str(out, key)
        if value is None:  # a delete
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            out.append(_U32.pack(len(value)))
            out.append(value)
    return b"".join(out)


def unpack_ops(raw: bytes) -> list[tuple[str, str, Optional[bytes]]]:
    if not raw.startswith(OPS_MAGIC):
        raise CodecError("op payload lacks the deterministic-framing magic")
    reader = Reader(raw, len(OPS_MAGIC))
    ops: list[tuple[str, str, Optional[bytes]]] = []
    for _ in range(reader.u32()):
        namespace = reader.string()
        key = reader.string()
        tag = reader.take(1)
        if tag == b"\x00":
            ops.append((namespace, key, None))
        elif tag == b"\x01":
            ops.append((namespace, key, reader.take(reader.u32())))
        else:
            raise CodecError(f"unknown op tag {tag!r}")
    if not reader.done():
        raise CodecError("trailing bytes after the framed op list")
    return ops


def pack_tables(data: dict[str, dict[str, bytes]]) -> bytes:
    """Frame a compacted table snapshot ``{namespace: {key: value}}``.

    Namespaces and keys are emitted sorted, and the body carries its own
    trailing crc32, so the same tables always produce the same bytes and
    a bit flip is detected without ever reaching a deserializer.
    """
    out = [TABLES_MAGIC, _U32.pack(len(data))]
    for namespace in sorted(data):
        rows = data[namespace]
        pack_str(out, namespace)
        out.append(_U32.pack(len(rows)))
        for key in sorted(rows):
            pack_str(out, key)
            value = rows[key]
            out.append(_U32.pack(len(value)))
            out.append(value)
    return seal(b"".join(out))


def unpack_tables(raw: bytes) -> dict[str, dict[str, bytes]]:
    if not raw.startswith(TABLES_MAGIC):
        raise CodecError("table snapshot lacks the deterministic-framing magic")
    body = unseal(raw, "table snapshot")
    reader = Reader(body, len(TABLES_MAGIC))
    data: dict[str, dict[str, bytes]] = {}
    for _ in range(reader.u32()):
        namespace = reader.string()
        rows: dict[str, bytes] = {}
        for _ in range(reader.u32()):
            key = reader.string()
            rows[key] = reader.take(reader.u32())
        data[namespace] = rows
    if not reader.done():
        raise CodecError("trailing bytes after the framed tables")
    return data
