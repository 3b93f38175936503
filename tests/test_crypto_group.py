"""Provenance of the signature group: the constants re-derive from a seed.

``common/crypto.py`` commits ``Q`` and ``K`` as literals and sets
``P = 2**1536 - K``.  This test holds the recipe that produced them (hash
a counter-suffixed tag until a 256-bit prime ``q`` appears; then take the
*smallest* ``k`` with ``2**1536 - k = 1 (mod q)`` that makes ``p =
2**1536 - k`` prime — no free choice, and a ``k`` short enough for the
fold in ``common/multiexp.py``), re-runs it, and checks the arithmetic
facts verification relies on — so nobody has to take the hex on trust,
and nobody can swap it silently.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.common import crypto
from repro.common.crypto import G, P, Q, PrivateKey, generate_keypair


def _stream(tag: bytes, bits: int) -> int:
    """Top ``bits`` bits of ``SHA-256(tag || i)`` for ``i = 0, 1, ...``."""
    out = b""
    counter = 0
    while len(out) * 8 < bits:
        out += hashlib.sha256(tag + counter.to_bytes(4, "big")).digest()
        counter += 1
    return int.from_bytes(out, "big") >> (len(out) * 8 - bits)


def _is_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin with ``rounds`` bases drawn from the same stream."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for i in range(rounds):
        base = 2 + _stream(b"repro-schnorr-mr-%d" % i, n.bit_length() + 64) % (n - 3)
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _derive_group() -> tuple[int, int, int, int]:
    c = 0
    while True:
        q = _stream(b"repro-schnorr-q-%d" % c, 256) | 1 << 255 | 1
        if _is_prime(q):
            break
        c += 1
    # k = ((2**1536 - 1) mod q) + j*q walks every p = 1 (mod q), largest first.
    k, j = (2**1536 - 1) % q, 0
    while not _is_prime(2**1536 - k):
        k, j = k + q, j + 1
    p = 2**1536 - k
    return p, q, pow(2, (p - 1) // q, p), j


class TestGroupProvenance:
    def test_constants_rederive_from_the_seed_tags(self):
        assert _derive_group() == (P, Q, G, 197)
        assert P == 2**1536 - crypto.K

    def test_the_modulus_folds(self):
        # What common/multiexp.py demands of a modulus 2**n - k.
        assert crypto.K.bit_length() == 263
        assert 2 * crypto.K.bit_length() + 2 <= P.bit_length()

    def test_both_moduli_are_prime(self):
        assert _is_prime(P, rounds=40)
        assert _is_prime(Q, rounds=40)

    def test_shape(self):
        assert P.bit_length() == 1536
        assert Q.bit_length() == 256
        assert (P - 1) % Q == 0
        # q divides p - 1 exactly once: G_q is the *only* subgroup of
        # order q, so "y^q == 1" is membership in <g>, not in a sibling.
        assert (P - 1) // Q % Q != 0

    def test_generator_has_order_q(self):
        assert G != 1
        assert pow(G, Q, P) == 1

    def test_wire_widths_unchanged(self):
        private, public = generate_keypair(b"width")
        assert len(public.to_bytes()) == 192
        assert len(private.sign(b"m")) == 48


class TestExponentDerivation:
    """Keys and nonces are 512-bit digests reduced mod q (bias < 2^-256)."""

    def test_private_key_is_a_reduced_sha512(self):
        for seed in (b"", b"alpha", b"x" * 100):
            digest = hashlib.sha512(b"repro-keygen||" + seed).digest()
            assert len(digest) * 8 >= 512
            assert PrivateKey.from_seed(seed).x == (int.from_bytes(digest, "big") % Q or 1)

    def test_nonce_is_a_reduced_hmac_sha512(self):
        private, public = generate_keypair(b"nonce-probe")
        for message in (b"", b"m", b"y" * 1000):
            signature = private.sign(message)
            e, s = signature[:16], int.from_bytes(signature[16:], "big")
            k = (s + private.x * int.from_bytes(e, "big")) % Q  # s = k - x*e
            digest = hmac.new(crypto._int_bytes(private.x), message, hashlib.sha512).digest()
            assert len(digest) * 8 >= 512
            assert k == (int.from_bytes(digest, "big") % Q or 1)
            assert crypto._challenge(pow(G, k, P), public.to_bytes(), message) == e
