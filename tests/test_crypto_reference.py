"""The ECDSA P-256 scheme checked against an independent pure-Python model.

``repro.common.crypto`` signs and verifies through OpenSSL.  The tests
here re-derive what it must produce from the published curve constants
alone: affine point arithmetic over the P-256 field, the RFC 6979
HMAC-DRBG nonce, and the textbook verification equation.  Nothing in
this model calls ``cryptography``, so an agreement is evidence about the
scheme, not an echo of it.  The model is slow (milliseconds per scalar
multiplication), so each test uses a handful of keys and messages.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import crypto
from repro.common.crypto import N, PrivateKey, PublicKey, generate_keypair, verify_batch

#: P-256 as published in SEC 2 / FIPS 186-4: y**2 = x**3 - 3x + b over F_p.
FIELD = 2**256 - 2**224 + 2**192 + 2**96 - 1
CURVE_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GENERATOR = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)

Point = Optional[tuple[int, int]]  # ``None`` is the point at infinity


def _on_curve(point: Point) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - (x**3 - 3 * x + CURVE_B)) % FIELD == 0


def _add(p1: Point, p2: Point) -> Point:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % FIELD == 0:
        return None
    if p1 == p2:
        slope = (3 * x1 * x1 - 3) * pow(2 * y1, -1, FIELD)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, FIELD)
    x3 = (slope * slope - x1 - x2) % FIELD
    return x3, (slope * (x1 - x3) - y1) % FIELD


def _mul(k: int, point: Point) -> Point:
    result: Point = None
    while k:
        if k & 1:
            result = _add(result, point)
        point = _add(point, point)
        k >>= 1
    return result


def _compress(point: tuple[int, int]) -> bytes:
    x, y = point
    return bytes((2 | (y & 1),)) + x.to_bytes(32, "big")


def _decompress(data: bytes) -> Point:
    """The SEC1 point ``data`` encodes, or ``None`` if it encodes none."""
    if len(data) != 33 or data[0] not in (2, 3):
        return None
    x = int.from_bytes(data[1:], "big")
    if x >= FIELD:
        return None
    rhs = (x**3 - 3 * x + CURVE_B) % FIELD
    y = pow(rhs, (FIELD + 1) // 4, FIELD)  # FIELD = 3 (mod 4)
    if y * y % FIELD != rhs:
        return None
    if y & 1 != data[0] & 1:
        y = FIELD - y
    return x, y


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as fixed witnesses."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in witnesses:
        return True
    if n < 2 or any(n % w == 0 for w in witnesses):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digest(message: bytes) -> int:
    """``bits2int(SHA-256(message))``; qlen = hlen = 256, so no shift."""
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def _rfc6979_nonce(x: int, message: bytes) -> int:
    """RFC 6979 §3.2 with HMAC-SHA-256 for a 256-bit group order."""
    x_octets = x.to_bytes(32, "big")
    h_octets = (_digest(message) % N).to_bytes(32, "big")
    v, k = b"\x01" * 32, b"\x00" * 32
    for tag in (b"\x00", b"\x01"):
        k = hmac.new(k, v + tag + x_octets + h_octets, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def _reference_sign(x: int, message: bytes) -> tuple[int, int]:
    """Raw ``(r, s)`` with the RFC 6979 nonce, before any low-S rule."""
    k = _rfc6979_nonce(x, message)
    r = _mul(k, GENERATOR)[0] % N
    s = pow(k, -1, N) * (_digest(message) + r * x) % N
    assert r and s  # probability 2**-256 each
    return r, s


def _reference_accepts(point: bytes, message: bytes, signature: bytes) -> bool:
    """Fabric's rule from first principles: 64 bytes, low S, the equation."""
    public = _decompress(point)
    if public is None or len(signature) != 64:
        return False
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (0 < r < N and 0 < s <= N // 2):
        return False
    w = pow(s, -1, N)
    total = _add(_mul(_digest(message) * w % N, GENERATOR), _mul(r * w % N, public))
    return total is not None and total[0] % N == r


def _wire(r: int, s: int) -> bytes:
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


class TestCurveConstants:
    """The constants the model rests on, checked before anything uses them."""

    def test_both_moduli_are_prime(self):
        assert _is_probable_prime(FIELD)
        assert _is_probable_prime(N)
        assert FIELD.bit_length() == N.bit_length() == 256

    def test_generator_is_on_the_curve_and_is_the_openssl_base_point(self):
        assert _on_curve(GENERATOR)
        numbers = ec.derive_private_key(1, ec.SECP256R1()).public_key().public_numbers()
        assert (numbers.x, numbers.y) == GENERATOR

    def test_generator_has_order_n(self):
        assert _mul(N - 1, GENERATOR) == (GENERATOR[0], FIELD - GENERATOR[1])
        assert _mul(N, GENERATOR) is None

    def test_n_minus_one_is_the_negated_generator_in_openssl(self):
        # OpenSSL agrees that N is the order: the scalar N - 1 is -G.
        public = PrivateKey(N - 1).public_key().to_bytes()
        assert public == _compress((GENERATOR[0], FIELD - GENERATOR[1]))

    def test_cofactor_is_one(self):
        # Hasse: the curve has p + 1 - t points, |t| <= 2 sqrt(p).  N is
        # the only multiple of N in that window, so every point on the
        # curve lies in the prime-order group, and a key that decodes
        # cannot sit in a small subgroup.
        from math import isqrt

        bound = 2 * isqrt(FIELD) + 2
        low, high = FIELD + 1 - bound, FIELD + 1 + bound
        assert low <= N <= high
        assert 2 * N > high


class TestKeysMatchTheModel:
    @pytest.mark.parametrize("seed", [b"", b"alpha", b"peer0.Org1MSP", b"\xff" * 48])
    def test_public_key_is_x_times_generator(self, seed):
        private, public = generate_keypair(seed)
        expected = _mul(private.x, GENERATOR)
        assert public.to_bytes() == _compress(expected)
        assert _decompress(public.to_bytes()) == expected

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(min_value=0, max_value=2**256 - 1), odd=st.booleans())
    @example(x=FIELD, odd=False)
    @example(x=GENERATOR[0], odd=True)
    def test_openssl_decodes_exactly_the_points_on_the_curve(self, x, odd):
        encoded = bytes((3 if odd else 2,)) + x.to_bytes(32, "big")
        point = _decompress(encoded)
        loaded = crypto._load_key(encoded)
        assert (loaded is None) == (point is None)
        if loaded is not None:
            numbers = loaded.public_numbers()
            assert (numbers.x, numbers.y) == point


#: RFC 6979 §A.2.5's P-256 key.
RFC_KEY = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721

SIGNING_CASES = {
    "rfc-key-sample": (RFC_KEY, b"sample"),
    "rfc-key-empty": (RFC_KEY, b""),
    "seeded-key-short": (PrivateKey.from_seed(b"signer-a").x, b"x"),
    "seeded-key-binary": (PrivateKey.from_seed(b"signer-b").x, bytes(range(256))),
    "seeded-key-long": (PrivateKey.from_seed(b"signer-c").x, b"payload" * 1500),
    "smallest-scalar": (1, b"one"),
}


class TestSigningMatchesTheModel:
    @pytest.mark.parametrize("case", list(SIGNING_CASES))
    def test_signature_is_the_low_s_rfc6979_signature(self, case):
        x, message = SIGNING_CASES[case]
        r, s = _reference_sign(x, message)
        assert PrivateKey(x).sign(message) == _wire(r, min(s, N - s))

    def test_rfc6979_test_vector(self):
        # RFC 6979 §A.2.5: P-256, SHA-256, message "test".  The vector's
        # s is already low, so it goes on the wire unchanged.
        k = 0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0
        r = 0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367
        s = 0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083
        assert _rfc6979_nonce(RFC_KEY, b"test") == k
        assert _reference_sign(RFC_KEY, b"test") == (r, s)
        assert PrivateKey(RFC_KEY).sign(b"test") == _wire(r, s)


def _bend(kind: str, private: PrivateKey, message: bytes) -> tuple[bytes, bytes, bytes]:
    """A ``(point, message, signature)`` triple of the named kind."""
    public = private.public_key().to_bytes()
    signature = private.sign(message)
    r, s = int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")
    if kind == "valid":
        return public, message, signature
    if kind == "high-s-twin":
        return public, message, _wire(r, N - s)
    if kind == "r-flipped":
        return public, message, _wire(r ^ 1, s)
    if kind == "s-flipped":
        return public, message, _wire(r, s ^ 1)
    if kind == "wrong-message":
        return public, message + b"?", signature
    if kind == "negated-key":
        # Same x coordinate, other y: the point -Q.
        return bytes((public[0] ^ 1,)) + public[1:], message, signature
    if kind == "r-and-s-swapped":
        return public, message, _wire(s, r)
    raise AssertionError(kind)


BEND_KINDS = [
    "valid", "high-s-twin", "r-flipped", "s-flipped",
    "wrong-message", "negated-key", "r-and-s-swapped",
]


class TestVerificationMatchesTheModel:
    @pytest.mark.parametrize("kind", BEND_KINDS)
    def test_verify_decides_as_the_model_does(self, kind):
        verdicts = []
        for i in range(3):
            private = PrivateKey.from_seed(b"model-%d" % i)
            point, message, signature = _bend(kind, private, b"message-%d" % i)
            expected = _reference_accepts(point, message, signature)
            crypto.clear_verify_cache()
            assert PublicKey(point).verify(message, signature) is expected
            crypto.clear_verify_cache()
            assert verify_batch([(PublicKey(point), message, signature)]) == [expected]
            verdicts.append(expected)
        # Not vacuous: only the honest signature is accepted.
        assert verdicts == [kind == "valid"] * 3


class TestSchemeSoundness:
    def test_no_two_signatures_share_a_nonce(self):
        # Two ECDSA signatures under one nonce give the key away:
        # k = (e1 - e2) / (s1 - s2) and x = (s1 k - e1) / r.  Equal
        # nonces mean equal r, so distinct r across messages and keys
        # rules the attack out.
        private = PrivateKey.from_seed(b"nonce-reuse")
        rs = [private.sign(b"message-%d" % i)[:32] for i in range(32)]
        rs += [PrivateKey.from_seed(b"key-%d" % i).sign(b"message-0")[:32] for i in range(8)]
        assert len(set(rs)) == len(rs)

        # And the attack works on the model, so the check above guards
        # something real.
        k = _rfc6979_nonce(private.x, b"a")
        r = _mul(k, GENERATOR)[0] % N
        e1, e2 = _digest(b"a"), _digest(b"b")
        s1 = pow(k, -1, N) * (e1 + r * private.x) % N
        s2 = pow(k, -1, N) * (e2 + r * private.x) % N
        recovered_k = (e1 - e2) * pow(s1 - s2, -1, N) % N
        assert (s1 * recovered_k - e1) * pow(r, -1, N) % N == private.x
