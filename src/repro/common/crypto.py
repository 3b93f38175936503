"""Public-key signatures for node identities.

Hyperledger Fabric signs with ECDSA over X.509 identities.  The protocol
logic reproduced here only needs a *publicly verifiable* signature scheme:
endorsers sign proposal responses, clients sign envelopes, and validators
verify both before evaluating endorsement policies.  We implement Schnorr
signatures in a DSA-style group — the order-``q`` subgroup ``G_q`` of
``Z_p*`` for a 1536-bit prime ``p = 2**1536 - k = c*q + 1`` and a
**256-bit prime** ``q`` — using nothing but the standard library, with
deterministic (RFC 6979-style) nonces so every run of the simulator is
reproducible.  ``tests/test_crypto_group.py`` re-derives ``p``, ``q``
and ``g`` from their recipe.

A signature is Schnorr's original short pair ``(e, s)``, 16 + 32 = 48
bytes on the wire: with ``r = g**k mod p``, ``e`` is the first 16 bytes
of ``SHA-256(r || y || message)`` and ``s = (k - x*e) mod q``.  Private
keys and nonces are 512-bit digests reduced mod ``q``; the reduction of
``s`` is what hides them (unreduced, ``-s // e`` is the top half of
``x``).  Verification accepts iff the string is 48 bytes, ``s < q``, the
public key is a non-identity element of ``G_q`` (``y**q == 1``, checked
once per distinct key) and the truncated hash of ``r' = g**s * y**e mod
p`` equals ``e``.  No commitment travels, so there is none to range-check
or to find outside ``G_q``; a 128-bit ``e`` bounds a forger by ``2**-128``
per hash query, the generic bound of a 256-bit ``q`` (DESIGN.md).

Every exponentiation is a fixed-base table look-up
(:mod:`repro.common.multiexp`) — 32 + 32 multiplications a verification,
``g**s`` and ``y**e`` — each reduced by two shift-and-multiply folds that
the short ``k`` of ``p`` allows instead of a generic ``% p``.  Key tables
are built for the 128-bit challenge; the one 256-bit exponent a key
sees, its validation's ``y**q``, is two limbs of that table joined by
128 squarings.  At that price a randomized batch equation has nothing
left to save, so :func:`verify_batch` is one :meth:`PublicKey.verify`
per item, and every verdict goes through the one verdict memo
(docs/architecture.md §9).

The substitution is documented in DESIGN.md: the attacks and defenses in
the paper do not depend on the curve, only on unforgeability and public
verifiability — both of which Schnorr in a prime-order subgroup provides.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.multiexp import FixedBaseTable, WindowTableLRU
from repro.common.tracing import PERF

# The group: q a 256-bit prime found by hashing counter-suffixed seed
# tags, p = 2**1536 - K for the smallest K that makes p a prime with
# q | p - 1 (tests/test_crypto_group.py holds the recipe and re-derives
# both literals).  K is 263 bits, short enough for multiexp's fold.
K = 0x6e731e1a765104c947af3b44dc1cb3b08012ce9622f6a315211d3f695e68e57d67
P = 2**1536 - K
Q = 0x8f24b1c876b8b5962a8bd5df467c802bae08a61644d93b33eba24418e0397c81
# 2 ** ((p - 1) / q): not 1, and q is prime, so it generates all of G_q.
G = pow(2, (P - 1) // Q, P)
_WIDTH = (P.bit_length() + 7) // 8  # bytes per group element on the wire
_E_BYTES = 16  # the challenge: a 128-bit truncation of SHA-256
_S_BYTES = (Q.bit_length() + 7) // 8


def _challenge(r: int, key: bytes, message: bytes) -> bytes:
    """The first 16 bytes of ``SHA-256(r || y || message)``."""
    return hashlib.sha256(b"||".join((_int_bytes(r), key, message))).digest()[:_E_BYTES]


def _exponent(digest: bytes) -> int:
    """A 512-bit digest reduced into ``[1, q)`` (bias below 2**-256)."""
    return int.from_bytes(digest, "big") % Q or 1


# ---------------------------------------------------------------------------
# Precomputation
# ---------------------------------------------------------------------------

_G_TABLE: Optional[FixedBaseTable] = None

#: The generator serves every signature and every verification of the
#: process, so its table takes the wide window: 32 rows of 255 entries,
#: 32 multiplications per ``g**e``, built once (about as long as
#: eighteen key tables).
_G_WINDOW = 8

#: Per-public-key window tables behind a real LRU, built on a key's
#: first use — which is its validation — for challenge-sized exponents.
_KEY_TABLES = WindowTableLRU(P, 8 * _E_BYTES, maxsize=96)


def _g_table() -> FixedBaseTable:
    """The generator's fixed-base table, built lazily once per process."""
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = FixedBaseTable(G, P, Q.bit_length(), window=_G_WINDOW)
    return _G_TABLE


def _g_pow(exponent: int) -> int:
    return _g_table().pow(exponent)


def _y_pow(y: int, exponent: int) -> int:
    return _KEY_TABLES.powmod(y, exponent)


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
    _KEY_TABLES.clear()
    _key_valid.cache_clear()
    for clearer in _CACHE_CLEARERS:
        clearer()


def clear_verify_cache() -> None:
    """Drop only the verification-result memo, keeping window tables.

    For tests that need the next verdict computed, not recalled — to
    count verifications, or to check what the equation itself decides:
    signatures are deterministic, so a verdict memoized earlier in the
    process would answer a later call without it.  The fixed-base tables
    are substrate, not verdicts, and stay.
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
# stay pinned by the cache, and the rehash on a hit costs nothing next
# to even one windowed modexp.
_VERIFY_CACHE: OrderedDict = OrderedDict()
_VERIFY_CACHE_MAX = 50_000


def _cache_key(y: int, message: bytes, signature: bytes) -> tuple:
    return (y, hashlib.sha256(message).digest(), signature)


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
    verdicts die with the run.  Window tables, validated keys and other
    layers' registered caches are substrate, not verdicts, and are left
    alone.  Re-entrant — a nested scope shares the enclosing memo.
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
def _key_valid(y: int) -> bool:
    """Is ``y`` a non-identity element of ``G_q``?  One modexp per key.

    Everything verification concludes rests on it: for ``y`` outside
    ``G_q`` the recomputed ``r'`` leaves it, and ``y = 1`` accepts
    ``(H(g**s, 1, m), s)`` for any message.  ``q`` divides ``p - 1``
    exactly once, so ``y**q == 1`` means ``y`` is a power of ``g``.
    """
    return 1 < y < P and _y_pow(y, Q) == 1


@dataclass(frozen=True)
class PublicKey:
    """Schnorr public key ``y = g^x mod p``."""

    y: int

    def to_bytes(self) -> bytes:
        return _int_bytes(self.y)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(int.from_bytes(data, "big"))

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a signature produced by the matching private key.

        Accepts and rejects rather than raising so policy evaluation can
        simply skip invalid endorsements, the way Fabric's VSCC does.
        """
        key = _cache_key(self.y, message, signature)
        cached = _cache_get(key)
        if cached is not None:
            return cached
        result = self._verify_uncached(message, signature)
        _cache_put(key, result)
        return result

    def _verify_uncached(self, message: bytes, signature: bytes) -> bool:
        PERF.verify_individual += 1
        e, s = signature[:_E_BYTES], int.from_bytes(signature[_E_BYTES:], "big")
        if not (len(signature) == _E_BYTES + _S_BYTES and s < Q and _key_valid(self.y)):
            return False
        r = _g_pow(s) * _y_pow(self.y, int.from_bytes(e, "big")) % P
        return _challenge(r, self.to_bytes(), message) == e


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(_WIDTH, "big")


@dataclass(frozen=True)
class PrivateKey:
    """Schnorr private key (the exponent ``x``)."""

    x: int

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a private key deterministically from a seed.

        The CA derives each identity's key from its enrollment id so that a
        simulator run is fully reproducible.
        """
        return cls(_exponent(hashlib.sha512(b"repro-keygen||" + seed).digest()))

    def public_key(self) -> PublicKey:
        return _derive_public_key(self.x)

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic Schnorr signature over ``message``."""
        k = _exponent(hmac.new(_int_bytes(self.x), message, hashlib.sha512).digest())
        e = _challenge(_g_pow(k), self.public_key().to_bytes(), message)
        # Reduced mod q: unreduced, -s // e is the top half of x.
        s = (k - self.x * int.from_bytes(e, "big")) % Q
        return e + s.to_bytes(_S_BYTES, "big")


@functools.lru_cache(maxsize=4096)
def _derive_public_key(x: int) -> PublicKey:
    # Signing re-derives the public key for the challenge hash; identities
    # sign thousands of messages per run, so memoise the fixed-base modexp.
    return PublicKey(_g_pow(x))


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
    is verified once, then recalled.  There is no combined equation (see
    the module docstring).
    """
    return [public_key.verify(message, signature) for public_key, message, signature in items]
