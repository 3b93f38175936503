"""Canonical byte serialization for signing and hashing.

Fabric serialises messages with protobuf; what matters for the protocol
logic is only that serialization is *canonical* — the same logical message
always produces the same bytes, so signatures and hashes are comparable
across nodes.  We implement a small deterministic encoder over the JSON
data model (dict / list / str / bytes / int / bool / None) instead of
pulling in protobuf.

``canonical_bytes`` is used everywhere a message is signed or hashed:
proposal responses, transaction envelopes, block data hashes.  Its output
is the compact, key-sorted, ASCII-escaped JSON text of the value with
every ``bytes`` replaced by ``{"__b64__": base64}`` and every object that
exposes ``to_wire()`` replaced by what that returns.  The encoder writes
that text directly, and when it meets a message that memoizes its own
encoding (``wire_bytes()``) it splices those bytes in verbatim instead of
walking the message again: JSON composes, so a child's canonical text is
exactly the text it contributes to its parent.
"""

from __future__ import annotations

import base64
import binascii
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

_BYTES_TAG = "__b64__"
_BYTES_OPEN = '{"' + _BYTES_TAG + '":"'
_BYTES_CLOSE = '"}'


def _emit(obj: Any, out: Callable[[str], None]) -> None:
    """Append the canonical text of ``obj`` to ``out``, piece by piece."""
    kind = type(obj)
    if kind is str:
        out(_quote(obj))
    elif kind is dict:
        _emit_dict(obj, out)
    elif kind is list or kind is tuple:
        _emit_list(obj, out)
    elif kind is bytes:
        out(_BYTES_OPEN + binascii.b2a_base64(obj, newline=False).decode("ascii") + _BYTES_CLOSE)
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif kind is int:
        out(int.__repr__(obj))
    else:
        _emit_other(obj, out)


def _emit_dict(obj: dict, out: Callable[[str], None]) -> None:
    if not obj:
        out("{}")
        return
    mapping = {str(key): value for key, value in obj.items()}
    sep = "{"
    for key in sorted(mapping):
        out(sep + _quote(key) + ":")
        _emit(mapping[key], out)
        sep = ","
    out("}")


def _emit_list(obj, out: Callable[[str], None]) -> None:
    if not obj:
        out("[]")
        return
    sep = "["
    for item in obj:
        out(sep)
        _emit(item, out)
        sep = ","
    out("]")


def _emit_other(obj: Any, out: Callable[[str], None]) -> None:
    """Subclasses of the data model's types, floats, and messages."""
    if isinstance(obj, bytes):
        _emit(bytes(obj), out)
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, out)
    elif isinstance(obj, str):
        out(_quote(obj))
    elif isinstance(obj, int):  # int subclasses (enums) print as their value
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            out("NaN")
        elif obj in (float("inf"), float("-inf")):
            out("Infinity" if obj > 0 else "-Infinity")
        else:
            out(float.__repr__(obj))
    else:
        wire_bytes = getattr(obj, "wire_bytes", None)
        if callable(wire_bytes):
            out(wire_bytes().decode("ascii"))
            return
        to_wire = getattr(obj, "to_wire", None)
        if not callable(to_wire):
            raise TypeError(f"cannot canonically serialize {type(obj).__name__}")
        _emit(to_wire(), out)


def _decode_object(obj: dict) -> Any:
    """``json`` object hook: a lone ``__b64__`` tag is a ``bytes`` value."""
    if len(obj) == 1 and _BYTES_TAG in obj:
        return base64.b64decode(obj[_BYTES_TAG])
    return obj


def canonical_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to deterministic bytes.

    Dict keys are sorted, bytes values are base64-tagged, and objects that
    expose ``to_wire()`` are converted first — or, when they also expose
    ``wire_bytes()`` (the memoized canonical bytes of ``to_wire()``),
    spliced in as those bytes.  Two logically equal messages always
    serialize to identical bytes — the property endorsement signature
    comparison relies on.
    """
    parts: list = []
    _emit(obj, parts.append)
    return "".join(parts).encode("ascii")


def from_canonical_bytes(data: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` (modulo tuples becoming lists)."""
    return json.loads(data.decode("utf-8"), object_hook=_decode_object)


# ---------------------------------------------------------------------------
# Serialization-memo epoch
# ---------------------------------------------------------------------------

# Frozen protocol messages memoise their canonical bytes on the instance
# (``Proposal.header_bytes``, ``ProposalResponsePayload.bytes``, ...).
# Those memos live on objects scattered across a run, so "clear the
# serialization caches" cannot walk them — instead every memo is stamped
# with the epoch below and ignored once the epoch moves on.

_MEMO_EPOCH = 0


def memo_epoch() -> int:
    """The current serialization-memo generation."""
    return _MEMO_EPOCH


def clear_serialization_memos() -> None:
    """Invalidate every instance-level serialization memo at once."""
    global _MEMO_EPOCH
    _MEMO_EPOCH += 1


class Memoized:
    """Base of frozen messages that stash derived encodings on themselves.

    A memo is an ``_``-prefixed instance attribute holding ``(epoch,
    value)``, written past the frozen ``__setattr__``; equality and
    hashing see only the dataclass fields.  Memos never reach storage on
    their own: a stored message is its canonical encoding, and a decoder
    that rebuilds one from those bytes may prime the matching memo with
    them (``TransactionEnvelope.from_signed_bytes``).  A message whose
    ``to_wire()`` is encoded often also defines ``wire_bytes()`` — that
    encoding, memoized — which :func:`canonical_bytes` splices wherever
    the message appears.
    """

    __slots__ = ()

    def _memo(self, name: str, compute: Callable[[], Any]) -> Any:
        cached = self.__dict__.get(name)
        if cached is not None and cached[0] == _MEMO_EPOCH:
            return cached[1]
        value = compute()
        self.__dict__[name] = (_MEMO_EPOCH, value)
        return value


def _register_with_crypto() -> None:
    # crypto.clear_caches is the process-wide isolation hook; hooking the
    # epoch bump there keeps "clear everything" a single call.  Imported
    # lazily-at-module-load: crypto does not import this module's hook
    # machinery back, so the edge stays acyclic.
    from repro.common import crypto

    crypto.register_cache_clearer(clear_serialization_memos)


_register_with_crypto()
