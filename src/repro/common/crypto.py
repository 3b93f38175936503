"""Public-key signatures for node identities.

Hyperledger Fabric signs with ECDSA over X.509 identities.  The protocol
logic reproduced here only needs a *publicly verifiable* signature scheme:
endorsers sign proposal responses, clients sign envelopes, and validators
verify both before evaluating endorsement policies.  We implement Schnorr
signatures over the RFC 3526 1536-bit MODP group using nothing but the
standard library, with deterministic (RFC 6979-style) nonces so every run
of the simulator is reproducible.

A signature is the pair ``(s, r)`` with ``r = g**k`` and ``s = k + x*e``
where ``e = H(r, y, message)`` — the classic commitment-carrying Schnorr
form.  Verification checks ``g**s == r * y**e``.  Carrying ``r`` (rather
than the challenge ``e``) is what makes **batch verification** possible:
all endorsements of a block are checked in a single randomized linear
combination, ``g**sum(c_i*s_i) == prod(r_i**c_i) * prod(y**sum(c_i*e_i))``,
with the 128-bit coefficients ``c_i`` drawn from a deterministic stream
bound to the batch content (so runs stay reproducible while a forger
cannot predict its coefficient).  Commitments are required to lie in the
order-q subgroup (a Jacobi-symbol pre-check, no modexp needed), so the
linear combination ranges over a prime-order group and the standard
small-exponent soundness bound applies.  A failing batch falls back to
bisection so an individual forgery is still pinpointed and rejected.

The substitution is documented in DESIGN.md: the attacks and defenses in
the paper do not depend on the curve, only on unforgeability and public
verifiability — both of which Schnorr over a safe-prime group provides,
in either single or batched verification.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.multiexp import FixedBaseTable, WindowTableLRU, multiexp
from repro.common.tracing import PERF

# RFC 3526, group 5 (1536-bit MODP).  p is a safe prime: p = 2q + 1.
_P_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
)
P = int(_P_HEX, 16)
Q = (P - 1) // 2
# 4 = 2**2 is a quadratic residue mod p, hence generates the order-q subgroup.
G = 4

#: Bit width of the randomized batch-verification coefficients.  A batch
#: that verifies can hide a forgery only with probability ~2**-128 per
#: unpredictable coefficient — and a failing batch bisects down to
#: individual verification anyway.
BATCH_COEFF_BITS = 128


class SignatureError(Exception):
    """A signature failed to verify or could not be decoded."""


def _hash_to_int(*parts: bytes) -> int:
    digest = hashlib.sha256(b"||".join(parts)).digest()
    return int.from_bytes(digest, "big")


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0 — O(len²) bit ops, no modexp."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _in_subgroup(r: int) -> bool:
    """Membership in the order-q subgroup of Z_p* (p = 2q+1 safe prime).

    The subgroup of order q is exactly the quadratic residues, so a
    Jacobi symbol of +1 decides membership without a 1536-bit modexp.
    Verification requires it of every commitment ``r``: honest signers
    produce ``r = g**k`` (a residue by construction), while rejecting
    the order-2 component up front is what keeps the *batch* equation
    sound — in a prime-order group a randomized linear combination can
    only hide a forgery with probability ~2**-128, whereas elements
    with an order-2 part could cancel in pairs regardless of the
    coefficients.
    """
    return _jacobi(r, P) == 1


# ---------------------------------------------------------------------------
# Fast-path switches and precomputation
# ---------------------------------------------------------------------------

# REPRO_CRYPTO_FAST=0 routes every exponentiation through plain pow()
# (the naive baseline the ablation bench measures against).
_FAST_PATH = os.environ.get("REPRO_CRYPTO_FAST", "1") != "0"
# REPRO_VERIFY_CACHE=0 disables (verification-result) memoization.
_CACHE_ENABLED = os.environ.get("REPRO_VERIFY_CACHE", "1") != "0"


def set_fast_path(enabled: bool) -> None:
    """Toggle the windowed/multi-exp kernels (bench ablation hook)."""
    global _FAST_PATH
    _FAST_PATH = bool(enabled)


def fast_path_enabled() -> bool:
    return _FAST_PATH


def set_verify_cache(enabled: bool) -> None:
    """Toggle verification-result memoization (bench ablation hook)."""
    global _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    if not enabled:
        _VERIFY_CACHE.clear()


def verify_cache_enabled() -> bool:
    return _CACHE_ENABLED


_G_TABLE: Optional[FixedBaseTable] = None

#: Per-public-key window tables behind a real LRU (built only once a key
#: has verified enough signatures to amortize the precomputation).
_KEY_TABLES = WindowTableLRU(maxsize=96, build_after=6)


def _g_table() -> FixedBaseTable:
    """The generator's fixed-base table, built lazily once per process."""
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = FixedBaseTable(G, P, Q.bit_length())
    return _G_TABLE


def _g_pow(exponent: int) -> int:
    if _FAST_PATH:
        return _g_table().pow(exponent)
    PERF.modexp_full += 1
    return pow(G, exponent, P)


def _y_pow(y: int, exponent: int) -> int:
    if _FAST_PATH:
        return _KEY_TABLES.powmod(y, exponent, P, Q.bit_length())
    PERF.modexp_full += 1
    return pow(y, exponent, P)


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
    for clearer in _CACHE_CLEARERS:
        clearer()


def clear_verify_cache() -> None:
    """Drop only the verification-result memo, keeping window tables.

    Benches that replay identical identities across modes must clear the
    memo between modes (deterministic signatures would let a later mode
    reuse an earlier mode's verdicts) but should keep the fixed-base
    tables: they are a one-time substrate cost every mode shares, not
    part of what any mode ablates.
    """
    _VERIFY_CACHE.clear()


# ---------------------------------------------------------------------------
# Verification-result memoization
# ---------------------------------------------------------------------------

# Every peer re-verifies the same (creator, endorser) signatures during
# block validation, so a network of N peers repeats each 1536-bit
# verification N times.  Signatures are deterministic, so caching by
# (key, message digest, signature) is sound.  The cache is a bounded
# LRU — a full cache evicts the least recently used entry instead of
# clearing wholesale — keyed by the SHA-256 digest of the message, not
# the message bytes: 50k multi-KB endorsement payloads would otherwise
# stay pinned by the cache, and the rehash on a hit costs nothing next
# to even one windowed 1536-bit modexp.
_VERIFY_CACHE: OrderedDict = OrderedDict()
_VERIFY_CACHE_MAX = 50_000


def _cache_key(y: int, message: bytes, signature: bytes) -> tuple:
    return (y, hashlib.sha256(message).digest(), signature)


def _cache_get(key) -> Optional[bool]:
    if not _CACHE_ENABLED:
        return None
    cached = _VERIFY_CACHE.get(key)
    if cached is not None:
        _VERIFY_CACHE.move_to_end(key)
        PERF.verify_cache_hits += 1
    return cached


def _cache_put(key, value: bool) -> None:
    if not _CACHE_ENABLED:
        return
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
    invariant catalogue): a verdict read back from the pipeline's memo, or
    settled by the batch equation under test, confirms nothing.  On entry
    the verdict memo is emptied — nothing written outside the scope can
    answer inside it — and memoization is switched on, so each distinct
    ``(key, message, signature)`` costs exactly one single-signature
    verification however many readers ask; :func:`verify_batch` settles
    item by item.  On exit the enable flag is restored and the memo is
    emptied again: a run's verdicts die with the run.  Window tables and
    other layers' registered caches are substrate, not verdicts, and are
    left alone.  Re-entrant — a nested scope shares the enclosing memo.
    """
    global _CACHE_ENABLED, _INDEPENDENT
    if _INDEPENDENT:
        yield
        return
    was_enabled = _CACHE_ENABLED
    _VERIFY_CACHE.clear()
    _CACHE_ENABLED = _INDEPENDENT = True
    try:
        yield
    finally:
        _INDEPENDENT = False
        _CACHE_ENABLED = was_enabled
        _VERIFY_CACHE.clear()


# ---------------------------------------------------------------------------
# Keys and signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicKey:
    """Schnorr public key ``y = g^x mod p``."""

    y: int

    def to_bytes(self) -> bytes:
        return self.y.to_bytes((P.bit_length() + 7) // 8, "big")

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
        try:
            s, r = _decode_signature(signature)
        except SignatureError:
            return False
        if not (0 <= s < Q and 0 < r < P and _in_subgroup(r)):
            return False
        e = _hash_to_int(_int_bytes(r), self.to_bytes(), message) % Q
        return _g_pow(s) == r * _y_pow(self.y, e) % P


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((P.bit_length() + 7) // 8, "big")


def _decode_signature(signature: bytes) -> tuple[int, int]:
    width = (P.bit_length() + 7) // 8
    if len(signature) != 2 * width:
        raise SignatureError(f"signature must be {2 * width} bytes, got {len(signature)}")
    s = int.from_bytes(signature[:width], "big")
    r = int.from_bytes(signature[width:], "big")
    return s, r


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
        x = _hash_to_int(b"repro-keygen", seed) % Q
        return cls(x or 1)

    def public_key(self) -> PublicKey:
        return _derive_public_key(self.x)

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic Schnorr signature over ``message``."""
        k_seed = hmac.new(_int_bytes(self.x), message, hashlib.sha256).digest()
        k = int.from_bytes(k_seed, "big") % Q
        k = k or 1
        r = _g_pow(k)
        e = _hash_to_int(_int_bytes(r), self.public_key().to_bytes(), message) % Q
        s = (k + self.x * e) % Q
        width = (P.bit_length() + 7) // 8
        return s.to_bytes(width, "big") + r.to_bytes(width, "big")


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
# Batch verification
# ---------------------------------------------------------------------------

def _batch_coefficients(decoded: dict, indices: Sequence[int], seed: bytes) -> dict:
    """Deterministic 128-bit coefficients bound to the batch transcript.

    The stream is seeded with a digest over every (key, message digest,
    signature) in the batch, Fiat–Shamir style: a forger fixing its
    signature before the batch is assembled cannot predict the
    coefficient multiplying it, yet two runs over the same block derive
    identical coefficients, keeping the simulator reproducible.
    """
    transcript = hashlib.sha256(b"repro-batch-transcript" + seed)
    for i in indices:
        y_bytes, msg_digest, signature, _s, _r = decoded[i]
        transcript.update(y_bytes)
        transcript.update(msg_digest)
        transcript.update(signature)
    root = transcript.digest()
    coefficients = {}
    for n, i in enumerate(indices):
        stream = hashlib.sha256(root + n.to_bytes(8, "big")).digest()
        c = int.from_bytes(stream[: BATCH_COEFF_BITS // 8], "big")
        # Any non-zero c < 2**128 < q is invertible in the order-q
        # subgroup (the pre-checks reject commitments outside it), so
        # the only coefficient to avoid is 0, which would drop its
        # signature from the combined equation entirely.
        coefficients[i] = c or 1
    return coefficients


def _batch_holds(decoded: dict, challenges: dict, indices: Sequence[int], seed: bytes) -> bool:
    """Evaluate one randomized-linear-combination batch equation."""
    PERF.batch_calls += 1
    coefficients = _batch_coefficients(decoded, indices, seed)
    s_combined = 0
    r_pairs = []
    e_by_key: dict[int, int] = {}
    for i in indices:
        _y_bytes, _digest, _sig, s, r = decoded[i]
        c = coefficients[i]
        s_combined = (s_combined + c * s) % Q
        r_pairs.append((r, c))
        y = challenges[i][0]
        e_by_key[y] = (e_by_key.get(y, 0) + c * challenges[i][1]) % Q
    lhs = _g_pow(s_combined)
    if _FAST_PATH:
        rhs = multiexp(r_pairs, P)
    else:
        rhs = 1
        for r, c in r_pairs:
            PERF.modexp_full += 1
            rhs = rhs * pow(r, c, P) % P
    for y, e_sum in e_by_key.items():
        rhs = rhs * _y_pow(y, e_sum) % P
    return lhs == rhs


def _screen(
    items: Sequence[tuple[PublicKey, bytes, bytes]],
) -> tuple[list, dict, dict, dict, list]:
    """Cache lookups + structural pre-checks before any batch equation.

    Returns ``(results, decoded, challenges, cache_keys, pending)``:
    items answered from the cache or rejected structurally are settled in
    ``results``; everything else is decoded and queued in ``pending``.
    """
    results: list[Optional[bool]] = [None] * len(items)
    decoded: dict = {}     # index -> (y_bytes, msg_digest, signature, s, r)
    challenges: dict = {}  # index -> (y, e)
    cache_keys: dict = {}  # index -> verify-cache key
    pending: list[int] = []
    for i, (public_key, message, signature) in enumerate(items):
        msg_digest = hashlib.sha256(message).digest()
        key = (public_key.y, msg_digest, signature)
        cache_keys[i] = key
        cached = _cache_get(key)
        if cached is not None:
            results[i] = cached
            continue
        try:
            s, r = _decode_signature(signature)
        except SignatureError:
            results[i] = False
            _cache_put(key, False)
            continue
        # The subgroup pre-check is what makes batching sound: every
        # surviving commitment lives in the prime-order-q subgroup, so
        # no order-2 components can cancel across a batch.
        if not (0 <= s < Q and 0 < r < P and _in_subgroup(r)):
            results[i] = False
            _cache_put(key, False)
            continue
        y_bytes = public_key.to_bytes()
        e = _hash_to_int(_int_bytes(r), y_bytes, message) % Q
        decoded[i] = (y_bytes, msg_digest, signature, s, r)
        challenges[i] = (public_key.y, e)
        pending.append(i)
    return results, decoded, challenges, cache_keys, pending


def _settle_serial(
    pending: list, decoded: dict, challenges: dict,
    results: list, cache_keys: dict, seed: bytes,
) -> None:
    """Settle pending indices by batch equation + bisection, in-process."""

    def settle(indices: list[int]) -> None:
        if len(indices) == 1:
            # Bisection leaf: decide the signature by the exact
            # individual equation, not a randomized one, so the result
            # is identical to what PublicKey.verify would return.
            i = indices[0]
            _y_bytes, _digest, _sig, s, r = decoded[i]
            y, e = challenges[i]
            PERF.verify_individual += 1
            result = _g_pow(s) == r * _y_pow(y, e) % P
            results[i] = result
            _cache_put(cache_keys[i], result)
            return
        if _batch_holds(decoded, challenges, indices, seed):
            _settle_valid(indices)
            return
        PERF.batch_bisections += 1
        mid = len(indices) // 2
        settle(indices[:mid])
        settle(indices[mid:])

    def _settle_valid(indices: list[int]) -> None:
        PERF.verify_batched += len(indices)
        for i in indices:
            results[i] = True
            _cache_put(cache_keys[i], True)

    settle(pending)


def _verify_batch_serial(
    items: Sequence[tuple[PublicKey, bytes, bytes]], seed: bytes = b""
) -> list[bool]:
    """The single-process reference path (also the worker-shard body)."""
    results, decoded, challenges, cache_keys, pending = _screen(items)
    if pending:
        _settle_serial(pending, decoded, challenges, results, cache_keys, seed)
    return [bool(flag) for flag in results]


#: Below this many cache-missing items a batch is settled in-process:
#: the per-shard fixed costs (transcript hash, generator modexp,
#: multi-exp base cost) would outweigh any split.
_SHARD_MIN_ITEMS = 8


def _verify_chunk_task(payload: tuple) -> tuple[list[bool], dict]:
    """Worker body: verify one shard of raw ``(y, message, signature)`` triples.

    Runs the complete reference pipeline — decode, subgroup pre-check,
    challenge derivation, batch equation, bisection — on its shard alone,
    so soundness never depends on another shard's contents.  Returns the
    per-item booleans plus the PERF-counter delta the shard produced
    (merged by the parent only when the shard ran in another process).
    Module-level and picklable-payload by construction: the process
    backend dispatches this exact function.
    """
    triples, seed = payload
    before = PERF.snapshot()
    items = [(PublicKey(y), message, signature) for y, message, signature in triples]
    flags = _verify_batch_serial(items, seed)
    return flags, PERF.delta_since(before)


def _try_sharded(
    items: Sequence[tuple[PublicKey, bytes, bytes]],
    seed: bytes,
    results: list,
    cache_keys: dict,
    pending: list,
) -> bool:
    """Shard the pending set across the execution backend's workers.

    Items are grouped by public key first — the batch equation aggregates
    challenge sums per distinct key, so splitting one key's signatures
    across shards would repeat its ``y``-exponentiation in every shard —
    then the groups are placed by the deterministic LPT plan shared with
    the cost model.  Returns False (caller settles serially) when the
    backend has one worker, the pending set is too small, or the plan
    degenerates to a single shard.  Per-shard verdicts are byte-identical
    to the serial reference regardless of the shard count: a valid shard
    settles all-True exactly like a valid batch, and an invalid one
    bisects down to the exact individual equation.
    """
    if len(pending) < _SHARD_MIN_ITEMS:
        return False
    # Function-level import: repro.runtime pulls in the client/gateway
    # stack, which imports this module.
    from repro.runtime.executor import current_backend, plan_shards

    backend = current_backend()
    if not backend.parallel:
        return False
    groups: dict[int, list[int]] = {}
    for i in pending:
        groups.setdefault(items[i][0].y, []).append(i)
    group_lists = list(groups.values())  # insertion order: deterministic
    plan = plan_shards([len(g) for g in group_lists], backend.workers)
    if len(plan) <= 1:
        return False
    shards = [
        [i for g in shard_bins for i in group_lists[g]] for shard_bins in plan
    ]
    payloads = [
        ([(items[i][0].y, items[i][1], items[i][2]) for i in shard], seed)
        for shard in shards
    ]
    outputs = backend.map(_verify_chunk_task, payloads)
    for shard, (flags, delta) in zip(shards, outputs):
        for i, flag in zip(shard, flags):
            results[i] = flag
            _cache_put(cache_keys[i], flag)
        if backend.remote:
            # Inline shards already incremented the shared PERF instance;
            # only cross-process work needs folding back in.
            PERF.merge(delta)
    return True


def verify_batch(
    items: Sequence[tuple[PublicKey, bytes, bytes]], seed: bytes = b""
) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples at once.

    Returns one boolean per item, and always agrees with calling
    :meth:`PublicKey.verify` item by item: an all-valid batch is settled
    by a single multi-exponentiation; a failing batch is bisected until
    every forged signature is isolated by an individual verification.
    Results (including per-item results from bisection) land in the
    shared verification cache, so subsequent individual ``verify`` calls
    on the same triples are O(1) lookups.

    When the active :mod:`execution backend <repro.runtime.executor>` has
    more than one worker, a large enough batch is sharded across workers
    (grouped by public key, greedy-LPT placed) with the subgroup
    pre-check preserved per shard; the merged verdicts are identical to
    the serial reference for any worker count.

    Inside :func:`independent_verification` no batch equation is formed:
    every item is settled by :meth:`PublicKey.verify`.
    """
    if _INDEPENDENT:
        return [key.verify(message, signature) for key, message, signature in items]
    results, decoded, challenges, cache_keys, pending = _screen(items)
    if pending and not _try_sharded(items, seed, results, cache_keys, pending):
        _settle_serial(pending, decoded, challenges, results, cache_keys, seed)
    return [bool(flag) for flag in results]


# ---------------------------------------------------------------------------
# Offloaded signing
# ---------------------------------------------------------------------------

def _sign_task(payload: tuple) -> tuple[bytes, dict]:
    """Worker body: one deterministic Schnorr signature plus PERF delta."""
    x, message = payload
    before = PERF.snapshot()
    signature = PrivateKey(x).sign(message)
    return signature, PERF.delta_since(before)


def sign_with_backend(private_key: PrivateKey, message: bytes) -> bytes:
    """Sign through the active execution backend.

    Signatures are deterministic (RFC 6979-style nonces), so the bytes
    are identical wherever the modexp runs; a remote backend ships the
    exponent + message to a worker and merges the PERF delta back, the
    serial reference signs inline.
    """
    from repro.runtime.executor import current_backend

    backend = current_backend()
    if not backend.remote:
        return private_key.sign(message)
    (signature, delta), = backend.map(_sign_task, [(private_key.x, message)])
    PERF.merge(delta)
    return signature
