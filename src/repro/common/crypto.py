"""Public-key signatures for node identities.

Hyperledger Fabric's MSP signs with ECDSA on the NIST P-256 curve over
SHA-256, and so does this module, through the OpenSSL binding of the
``cryptography`` package.  Endorsers sign proposal responses, clients
sign envelopes, and validators verify both before evaluating endorsement
policies.

The scheme follows Fabric's bccsp in everything a verifier can see: the
curve, the hash, and the *low-S* rule (``s > n/2`` is normalised to
``n - s`` when signing and rejected when verifying, so a valid signature
has no second valid encoding).  The one difference is the nonce: it is
derived deterministically from the key and the message (RFC 6979)
instead of drawn at random, so every run of the simulator is
reproducible (DESIGN.md).

On the wire a signature is a fixed 64 bytes, ``r || s``, each a 32-byte
big-endian integer; a public key is its 33-byte SEC1 compressed point.
Verification returns ``False`` — it never raises — for a signature of
any other length, an ``r`` or ``s`` outside ``[1, n)``, a high ``s``, a
key OpenSSL cannot decode, or an equation that does not hold.  Every
verdict goes through one bounded memo (docs/architecture.md §9), and
:func:`verify_batch` is one :meth:`PublicKey.verify` per item.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, utils

from repro.common.tracing import PERF

_CURVE = ec.SECP256R1()
#: The order of the P-256 base point.
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_HALF_N = N // 2
_SCALAR_BYTES = 32
_SIGNATURE_BYTES = 2 * _SCALAR_BYTES
_SIGN = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_VERIFY = ec.ECDSA(hashes.SHA256())


#: Cache clearers registered by other layers (proposal-serialization
#: memos, endorser simulation caches).  They live here because
#: ``clear_caches`` is *the* test/bench isolation hook: a cache this
#: registry misses can bleed state across tests and mask invalidation
#: bugs.  Registration happens at module import of the owning layer —
#: those layers import crypto, never the reverse, so no cycle.
_CACHE_CLEARERS: list = []


def register_cache_clearer(clearer) -> None:
    """Hook a layer's cache reset into :func:`clear_caches`."""
    if clearer not in _CACHE_CLEARERS:
        _CACHE_CLEARERS.append(clearer)


def clear_caches() -> None:
    """Drop every process-wide cache (bench/test isolation hook).

    Besides the crypto-local caches this also invokes every registered
    clearer, so the proposal-serialization memos and the endorsers'
    simulation caches reset with the same call.
    """
    _VERIFY_CACHE.clear()
    _load_key.cache_clear()
    for clearer in _CACHE_CLEARERS:
        clearer()


def clear_verify_cache() -> None:
    """Drop only the verification-result memo, keeping decoded keys.

    For tests that need the next verdict computed, not recalled — to
    count verifications, or to check what the equation itself decides:
    signatures are deterministic, so a verdict memoized earlier in the
    process would answer a later call without it.  Decoded keys are
    substrate, not verdicts, and stay.
    """
    _VERIFY_CACHE.clear()


# ---------------------------------------------------------------------------
# Verification-result memoization
# ---------------------------------------------------------------------------

# Every peer re-verifies the same (creator, endorser) signatures during
# block validation, so a network of N peers repeats each verification
# N times.  Signatures are deterministic, so caching by
# (key, message digest, signature) is sound.  The cache is a bounded
# LRU — a full cache evicts the least recently used entry instead of
# clearing wholesale — keyed by the SHA-256 digest of the message, not
# the message bytes: 50k multi-KB endorsement payloads would otherwise
# stay pinned by the cache, and the rehash on a hit costs little next
# to one verification.
_VERIFY_CACHE: OrderedDict = OrderedDict()
_VERIFY_CACHE_MAX = 50_000


def _cache_key(point: bytes, message: bytes, signature: bytes) -> tuple:
    return (point, hashlib.sha256(message).digest(), signature)


def _cache_get(key) -> Optional[bool]:
    cached = _VERIFY_CACHE.get(key)
    if cached is not None:
        _VERIFY_CACHE.move_to_end(key)
        PERF.verify_cache_hits += 1
    return cached


def _cache_put(key, value: bool) -> None:
    _VERIFY_CACHE[key] = value
    _VERIFY_CACHE.move_to_end(key)
    if len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
        _VERIFY_CACHE.popitem(last=False)


#: True inside :func:`independent_verification`.
_INDEPENDENT = False


@contextmanager
def independent_verification():
    """Scope in which every verdict is computed afresh, one equation each.

    For oracles that re-check what the pipeline verified (the simulation's
    invariant catalogue): a verdict read back from the pipeline's memo
    confirms nothing.  On entry the verdict memo is emptied — nothing
    written outside the scope can answer inside it — so each distinct
    ``(key, message, signature)`` costs exactly one verification however
    many readers ask.  On exit the memo is emptied again: a run's
    verdicts die with the run.  Decoded keys and other layers'
    registered caches are substrate, not verdicts, and are left alone.
    Re-entrant — a nested scope shares the enclosing memo.
    """
    global _INDEPENDENT
    if _INDEPENDENT:
        yield
        return
    _VERIFY_CACHE.clear()
    _INDEPENDENT = True
    try:
        yield
    finally:
        _INDEPENDENT = False
        _VERIFY_CACHE.clear()


# ---------------------------------------------------------------------------
# Keys and signatures
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _load_key(point: bytes) -> Optional[ec.EllipticCurvePublicKey]:
    """The OpenSSL key for an encoded point, or ``None`` if it is not one.

    OpenSSL refuses the point at infinity, unknown prefixes, coordinates
    outside the field and points off the curve; everything verification
    concludes rests on that refusal, so a key is decoded once and the
    answer — key or ``None`` — kept.
    """
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, point)
    except ValueError:
        return None


@dataclass(frozen=True)
class PublicKey:
    """An ECDSA P-256 public key, held as its SEC1 compressed point."""

    point: bytes

    def to_bytes(self) -> bytes:
        return self.point

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(bytes(data))

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a signature produced by the matching private key.

        Accepts and rejects rather than raising so policy evaluation can
        simply skip invalid endorsements, the way Fabric's VSCC does.
        """
        key = _cache_key(self.point, message, signature)
        cached = _cache_get(key)
        if cached is not None:
            return cached
        result = self._verify_uncached(message, signature)
        _cache_put(key, result)
        return result

    def _verify_uncached(self, message: bytes, signature: bytes) -> bool:
        PERF.verify_individual += 1
        if len(signature) != _SIGNATURE_BYTES:
            return False
        r = int.from_bytes(signature[:_SCALAR_BYTES], "big")
        s = int.from_bytes(signature[_SCALAR_BYTES:], "big")
        if not (0 < r < N and 0 < s <= _HALF_N):
            return False
        public = _load_key(self.point)
        if public is None:
            return False
        try:
            public.verify(utils.encode_dss_signature(r, s), message, _VERIFY)
        except InvalidSignature:
            return False
        return True


@dataclass(frozen=True)
class PrivateKey:
    """An ECDSA P-256 private key (the scalar ``x`` in ``[1, n)``)."""

    x: int

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a private key deterministically from a seed.

        The CA derives each identity's key from its enrollment id so that a
        simulator run is fully reproducible.  A 512-bit digest reduced into
        ``[1, n)`` (bias below 2**-256).
        """
        digest = hashlib.sha512(b"repro-keygen||" + seed).digest()
        return cls(int.from_bytes(digest, "big") % N or 1)

    def public_key(self) -> PublicKey:
        return _openssl_key(self.x)[1]

    def sign(self, message: bytes) -> bytes:
        """A deterministic (RFC 6979) low-S signature over ``message``."""
        der = _openssl_key(self.x)[0].sign(message, _SIGN)
        r, s = utils.decode_dss_signature(der)
        if s > _HALF_N:
            s = N - s
        return r.to_bytes(_SCALAR_BYTES, "big") + s.to_bytes(_SCALAR_BYTES, "big")


@functools.lru_cache(maxsize=4096)
def _openssl_key(x: int) -> tuple[ec.EllipticCurvePrivateKey, PublicKey]:
    """The OpenSSL key for scalar ``x`` and its public key, built once.

    Identities sign thousands of messages per run.  ``ValueError`` if
    ``x`` is outside ``[1, n)``.
    """
    private = ec.derive_private_key(x, _CURVE)
    numbers = private.public_key().public_numbers()
    point = bytes((2 | (numbers.y & 1),)) + numbers.x.to_bytes(_SCALAR_BYTES, "big")
    return private, PublicKey(point)


def generate_keypair(seed: bytes) -> tuple[PrivateKey, PublicKey]:
    """Deterministically derive a keypair from ``seed``."""
    private = PrivateKey.from_seed(seed)
    return private, private.public_key()


# ---------------------------------------------------------------------------
# Verifying many signatures in one call
# ---------------------------------------------------------------------------

def verify_batch(items: Sequence[tuple[PublicKey, bytes, bytes]]) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples in one call.

    One :meth:`PublicKey.verify` per item, in order, so each verdict is
    the one ``verify`` would return and a triple repeated inside the call
    is verified once, then recalled.
    """
    return [public_key.verify(message, signature) for public_key, message, signature in items]
