"""Unit and property tests for the ECDSA P-256 signature scheme."""

from __future__ import annotations

import subprocess
import sys

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, utils
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import crypto
from repro.common.crypto import (
    N,
    PrivateKey,
    PublicKey,
    generate_keypair,
    verify_batch,
)
from repro.common.tracing import PERF

#: The P-256 field prime and the curve's ``b`` (y**2 = x**3 - 3x + b).
FIELD = 2**256 - 2**224 + 2**192 + 2**96 - 1
CURVE_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"test-seed")


def _wire(r: int, s: int) -> bytes:
    """``r`` then ``s``, 32 big-endian bytes each."""
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def _parts(signature: bytes) -> tuple[int, int]:
    """``(r, s)`` of a 64-byte signature."""
    assert len(signature) == 64
    return int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")


def _off_curve_x() -> int:
    """The smallest ``x`` below the field prime with no point above it."""
    x = 1
    while pow((x**3 - 3 * x + CURVE_B) % FIELD, (FIELD - 1) // 2, FIELD) == 1:
        x += 1
    return x


#: Encodings OpenSSL must refuse, by name.
BAD_KEYS = {
    "infinity": lambda: b"\x00",
    "empty": lambda: b"",
    "bad-prefix": lambda: b"\x05" + _off_curve_x().to_bytes(32, "big"),
    "off-curve-x": lambda: b"\x02" + _off_curve_x().to_bytes(32, "big"),
    "x-not-below-field-prime": lambda: b"\x03" + FIELD.to_bytes(32, "big"),
}


def _bad_keys() -> list[PublicKey]:
    return [PublicKey(encode()) for encode in BAD_KEYS.values()]


def _openssl_accepts(public: PublicKey, message: bytes, r: int, s: int) -> bool:
    """Raw OpenSSL ECDSA, without this module's wire and low-S rules."""
    try:
        crypto._load_key(public.point).verify(
            utils.encode_dss_signature(r, s), message, ec.ECDSA(hashes.SHA256())
        )
    except InvalidSignature:
        return False
    return True


class TestKeyGeneration:
    def test_deterministic_from_seed(self):
        private1, public1 = generate_keypair(b"alpha")
        private2, public2 = generate_keypair(b"alpha")
        assert private1.x == private2.x
        assert public1 == public2

    def test_different_seeds_different_keys(self):
        _, public1 = generate_keypair(b"alpha")
        _, public2 = generate_keypair(b"beta")
        assert public1 != public2

    def test_public_key_is_a_compressed_curve_point(self, keypair):
        private, public = keypair
        point = public.to_bytes()
        assert len(point) == 33 and point[0] in (2, 3)
        numbers = ec.derive_private_key(private.x, ec.SECP256R1()).public_key().public_numbers()
        assert point[1:] == numbers.x.to_bytes(32, "big")
        assert point[0] == 2 + (numbers.y & 1)
        assert crypto._load_key(point) is not None

    def test_private_key_in_range(self, keypair):
        private, _ = keypair
        assert 1 <= private.x < N

    def test_seed_derivation_is_sha512_reduced_mod_n(self):
        import hashlib

        for seed in (b"", b"alpha", b"\xff" * 40):
            digest = hashlib.sha512(b"repro-keygen||" + seed).digest()
            assert PrivateKey.from_seed(seed).x == int.from_bytes(digest, "big") % N or 1

    def test_out_of_range_scalar_has_no_public_key(self):
        for x in (0, N, N + 1):
            with pytest.raises(ValueError):
                PrivateKey(x).public_key()


class TestSignVerify:
    def test_roundtrip(self, keypair):
        private, public = keypair
        signature = private.sign(b"hello world")
        assert public.verify(b"hello world", signature)

    def test_wrong_message_rejected(self, keypair):
        private, public = keypair
        signature = private.sign(b"hello world")
        assert not public.verify(b"hello worlD", signature)

    def test_wrong_key_rejected(self, keypair):
        private, _ = keypair
        _, other_public = generate_keypair(b"someone-else")
        signature = private.sign(b"msg")
        assert not other_public.verify(b"msg", signature)

    def test_signature_deterministic(self, keypair):
        private, _ = keypair
        assert private.sign(b"msg") == private.sign(b"msg")

    def test_different_messages_different_signatures(self, keypair):
        private, _ = keypair
        assert private.sign(b"a") != private.sign(b"b")

    def test_empty_message(self, keypair):
        private, public = keypair
        assert public.verify(b"", private.sign(b""))

    def test_large_message(self, keypair):
        private, public = keypair
        message = b"x" * 100_000
        assert public.verify(message, private.sign(message))

    def test_tampered_signature_rejected(self, keypair):
        private, public = keypair
        signature = bytearray(private.sign(b"msg"))
        signature[0] ^= 0xFF
        assert not public.verify(b"msg", bytes(signature))

    def test_truncated_signature_rejected(self, keypair):
        private, public = keypair
        signature = private.sign(b"msg")
        assert not public.verify(b"msg", signature[:-1])

    def test_empty_signature_rejected(self, keypair):
        _, public = keypair
        assert not public.verify(b"msg", b"")

    def test_all_zero_signature_rejected(self, keypair):
        private, public = keypair
        width = len(private.sign(b"msg"))
        assert not public.verify(b"msg", b"\x00" * width)

    def test_no_second_encoding_of_a_signature_verifies(self, keypair):
        # One length, scalars in [1, n), low S only, and no DER: nobody
        # can turn one valid signature into another.
        private, public = keypair
        message = b"bend"
        signature = private.sign(message)
        r, s = _parts(signature)
        bent = [
            _wire(r, N - s),
            _wire(r, s ^ 1),
            _wire(r ^ 1, s),
            signature[:-1],
            signature + b"\x00",
            b"\x00" + signature,
            utils.encode_dss_signature(r, s),
        ]
        assert public.verify(message, signature)
        for forged in bent:
            crypto.clear_verify_cache()
            assert not public.verify(message, forged), forged.hex()
        crypto.clear_verify_cache()
        assert verify_batch([(public, message, b) for b in bent]) == [False] * len(bent)


class TestPublicKeySerialization:
    def test_roundtrip(self, keypair):
        _, public = keypair
        assert PublicKey.from_bytes(public.to_bytes()) == public

    def test_fixed_width(self, keypair):
        _, public = keypair
        assert len(public.to_bytes()) == 33


class TestSchemeRules:
    """What Fabric's bccsp decides, decided the same way here."""

    def setup_method(self):
        crypto.clear_caches()

    def test_rfc6979_known_answer(self):
        # RFC 6979 §A.2.5: P-256, SHA-256, message "sample".
        private = PrivateKey(
            0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
        )
        public_x = 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
        # Uy = 7903FE10...D4462299 is odd.
        assert private.public_key().to_bytes() == b"\x03" + public_x.to_bytes(32, "big")
        raw_s = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8
        assert raw_s > N // 2  # the vector's own s is high
        signature = private.sign(b"sample")
        assert signature == _wire(
            0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
            N - raw_s,
        )
        assert private.public_key().verify(b"sample", signature)

    def test_high_s_twin_is_rejected(self, keypair):
        private, public = keypair
        for i in range(8):
            message = b"twin-%d" % i
            r, s = _parts(private.sign(message))
            assert s <= N // 2
            # Not vacuous: raw ECDSA accepts the twin; the low-S rule
            # is the only thing in the way.
            assert _openssl_accepts(public, message, r, N - s)
            crypto.clear_verify_cache()
            assert not public.verify(message, _wire(r, N - s))

    @pytest.mark.parametrize("which", ["r", "s"])
    @pytest.mark.parametrize("value", [0, N, 2**256 - 1], ids=["zero", "n", "max"])
    def test_scalars_outside_one_to_n_are_rejected(self, keypair, which, value):
        private, public = keypair
        r, s = _parts(private.sign(b"range"))
        bad = _wire(value, s) if which == "r" else _wire(r, value)
        assert not public.verify(b"range", bad)

    @pytest.mark.parametrize("bend", [
        lambda sig: sig[:63], lambda sig: sig + b"\x00", lambda sig: b"\x00" + sig,
    ], ids=["63-truncated", "65-appended", "65-prefixed"])
    def test_lengths_other_than_64_are_rejected(self, keypair, bend):
        private, public = keypair
        bad = bend(private.sign(b"length"))
        assert len(bad) in (63, 65)
        assert not public.verify(b"length", bad)

    @pytest.mark.parametrize("name", list(BAD_KEYS))
    def test_undecodable_keys_verify_nothing(self, keypair, name):
        private, public = keypair
        key = PublicKey(BAD_KEYS[name]())
        message = b"pay the forger"
        honest = private.sign(message)
        assert crypto._load_key(key.point) is None
        assert not key.verify(message, honest)
        crypto.clear_caches()
        assert verify_batch(
            [(public, message, honest), (key, message, honest)]
        ) == [True, False]

    def test_signature_never_raises(self, keypair):
        _, public = keypair
        for signature in (b"", b"\xff" * 64, b"\x01" * 64, bytes(64), b"\x01" * 1000):
            crypto.clear_verify_cache()
            assert public.verify(b"m", signature) is False

    def test_signing_and_verifying_load_no_key_serialization_module(self):
        # The serialization module costs a quarter MiB of resident memory
        # for nothing: keys are built from their numbers.
        code = (
            "import sys\n"
            "from repro.common.crypto import generate_keypair\n"
            "private, public = generate_keypair(b's')\n"
            "assert public.verify(b'm', private.sign(b'm'))\n"
            "print('cryptography.hazmat.primitives.serialization' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


def _batch_items(count: int, tag: bytes = b""):
    """``count`` distinct (public_key, message, signature) triples."""
    items = []
    for i in range(count):
        private, public = generate_keypair(tag + f"signer-{i}".encode())
        message = tag + f"message-{i}".encode()
        items.append((public, message, private.sign(message)))
    return items


def _key_decodes() -> int:
    return crypto._load_key.cache_info().misses


class TestBatchVerification:
    def setup_method(self):
        crypto.clear_caches()

    def test_all_valid_batch(self):
        items = _batch_items(16)
        assert verify_batch(items) == [True] * 16

    def test_all_valid_batch_costs_one_equation_per_item(self):
        items = _batch_items(12, tag=b"nb-")
        PERF.reset()
        assert verify_batch(items) == [True] * 12
        assert PERF.verify_individual == 12
        assert PERF.verify_cache_hits == 0

    def test_wrong_key_forgery_is_the_only_rejection(self):
        # A wrong-key forgery decodes cleanly and is in range, so only
        # the verification equation can reject it.
        items = _batch_items(16)
        forger, _ = generate_keypair(b"the-forger")
        victim_public = items[7][0]
        items[7] = (victim_public, b"forged claim", forger.sign(b"forged claim"))
        PERF.reset()
        results = verify_batch(items)
        assert results == [True] * 7 + [False] + [True] * 8
        assert PERF.verify_individual == 16

    def test_multiple_forgeries_all_isolated(self):
        items = _batch_items(20, tag=b"multi-")
        forger, _ = generate_keypair(b"forger-2")
        for index in (0, 9, 19):
            public = items[index][0]
            items[index] = (public, b"fake", forger.sign(b"fake"))
        expected = [index not in (0, 9, 19) for index in range(20)]
        assert verify_batch(items) == expected

    def test_malformed_and_out_of_range_signatures(self):
        items = _batch_items(4, tag=b"mal-")
        items[1] = (items[1][0], b"m", b"short")
        # s >= n fails the range check before the key is decoded.
        items[2] = (items[2][0], b"m", _wire(1, N))
        crypto.clear_caches()
        before = _key_decodes()
        assert verify_batch(items) == [True, False, False, True]
        assert _key_decodes() - before == 2  # only the well-formed items

    def test_batch_agrees_with_individual_verify(self):
        # Seed-swept corpus: valid, wrong-message, wrong-key, cross-wired,
        # malformed, high-S and bit-flipped signatures and an undecodable
        # key must settle exactly as verify() does.
        try:
            for sweep in range(5):
                crypto.clear_caches()
                tag = f"sweep-{sweep}-".encode()
                items = _batch_items(12, tag=tag)
                forger, _ = generate_keypair(tag + b"forger")
                items[1] = (items[1][0], items[1][1], forger.sign(items[1][1]))
                items[4] = (items[4][0], b"swapped", items[4][2])
                items[8] = (items[8][0], items[8][1], items[3][2])
                items[9] = (items[9][0], items[9][1], items[9][2][:-1])
                r, s = _parts(items[10][2])
                items[10] = (items[10][0], items[10][1], _wire(r, N - s))
                r, s = _parts(items[11][2])
                items[11] = (items[11][0], items[11][1], _wire(r ^ 1, s))
                items.append((_bad_keys()[sweep], items[0][1], items[0][2]))
                batched = verify_batch(items)
                crypto.clear_caches()
                individual = [pk.verify(msg, sig) for pk, msg, sig in items]
                assert batched == individual, sweep
                assert batched == [i in (0, 2, 3, 5, 6, 7) for i in range(13)]
        finally:
            crypto.clear_caches()

    def test_batch_populates_verify_cache(self):
        items = _batch_items(8, tag=b"cache-")
        verify_batch(items)
        PERF.reset()
        assert all(pk.verify(msg, sig) for pk, msg, sig in items)
        assert PERF.verify_cache_hits == 8
        assert PERF.verify_individual == 0

    def test_repeated_triple_is_verified_once(self):
        # One PublicKey.verify per item: the second copy of a triple is
        # answered by the verdict the first one just wrote.
        items = _batch_items(2, tag=b"twice-")
        PERF.reset()
        assert verify_batch([items[0], items[1], items[0]]) == [True] * 3
        assert PERF.verify_individual == 2
        assert PERF.verify_cache_hits == 1

    def test_empty_and_singleton_batches(self):
        assert verify_batch([]) == []
        items = _batch_items(1, tag=b"single-")
        assert verify_batch(items) == [True]

    def test_batch_results_repeat_from_cold_caches(self):
        items = _batch_items(6, tag=b"seed-")
        items[2] = (items[2][0], b"not the message", items[2][2])
        for _ in range(3):
            crypto.clear_caches()
            assert verify_batch(items) == [True, True, False, True, True, True]

    @pytest.mark.parametrize("forge", [(), ((0, 1), (2, 3)), ((1, 0),)])
    def test_shared_key_batch_matches_reference(self, forge):
        # Four keys signing four messages each, the shape of a block's
        # per-key signature groups; a forgery flips one byte of ``s``.
        items = []
        for k in range(4):
            private, public = generate_keypair(f"group-key-{k}".encode())
            for m in range(4):
                message = f"msg-{k}-{m}".encode()
                signature = private.sign(message)
                if (k, m) in forge:
                    signature = signature[:-1] + bytes([signature[-1] ^ 1])
                items.append((public, message, signature))
        reference = [public.verify(msg, sig) for public, msg, sig in items]
        assert reference == [
            (k, m) not in forge for k in range(4) for m in range(4)
        ]
        crypto.clear_caches()
        before, decodes = PERF.snapshot(), _key_decodes()
        assert verify_batch(items) == reference
        # One equation per item, and one key decode per key.
        delta = PERF.delta_since(before)
        assert delta.get("verify_individual", 0) == len(items)
        assert delta.get("verify_cache_hits", 0) == 0
        assert _key_decodes() - decodes == 4


class TestCostGuard:
    """The price of a signature in counted work, not time, so a
    regression that verifies or decodes more fails on any host."""

    def setup_method(self):
        crypto.clear_caches()
        self.private, self.public = generate_keypair(b"cost-guard")
        assert self.public.verify(b"warm", self.private.sign(b"warm"))

    def _spent(self, fn) -> dict:
        before = PERF.snapshot()
        fn()
        return PERF.delta_since(before)

    def test_a_signature_verifies_nothing(self):
        assert self._spent(lambda: self.private.sign(b"to sign")) == {}

    def test_one_uncached_verification_is_one_equation(self):
        signature = self.private.sign(b"to verify")
        decodes = _key_decodes()
        spent = self._spent(lambda: self.public.verify(b"to verify", signature))
        assert spent == {"verify_individual": 1}
        assert _key_decodes() == decodes

    def test_verify_batch_is_one_equation_per_item(self):
        messages = [b"batch-%d" % i for i in range(7)]
        items = [(self.public, m, self.private.sign(m)) for m in messages]
        spent = self._spent(lambda: verify_batch(items))
        assert spent == {"verify_individual": 7}

    def test_a_cold_key_is_decoded_once(self):
        crypto.clear_caches()
        decodes = _key_decodes()
        signature = self.private.sign(b"m")
        assert self.public.verify(b"m", signature)
        assert self.public.verify(b"n", self.private.sign(b"n"))
        assert _key_decodes() - decodes == 1

    def test_an_undecodable_key_is_decoded_once(self):
        signature = self.private.sign(b"m")
        key = _bad_keys()[0]
        decodes = _key_decodes()
        for message in (b"m", b"n"):
            spent = self._spent(lambda: key.verify(message, signature))
            assert spent == {"verify_individual": 1}
        assert _key_decodes() - decodes == 1


class TestVerdictMemo:
    def setup_method(self):
        crypto.clear_caches()

    def test_verify_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(crypto, "_VERIFY_CACHE_MAX", 4)
        private, public = generate_keypair(b"lru")
        signatures = [(f"m{i}".encode(), private.sign(f"m{i}".encode())) for i in range(6)]
        crypto.clear_caches()
        for message, signature in signatures:
            public.verify(message, signature)
        assert len(crypto._VERIFY_CACHE) == 4
        # The oldest entries were evicted, the newest retained.
        PERF.reset()
        public.verify(*signatures[-1])
        assert PERF.verify_cache_hits == 1

    def test_cache_keys_hold_digest_not_payload(self):
        # The cache must never pin message payloads alive: keys carry the
        # 32-byte SHA-256 digest, not the (possibly multi-KB) message.
        import hashlib

        private, public = generate_keypair(b"digest-key")
        message = b"x" * 10_000
        signature = private.sign(message)
        crypto.clear_caches()
        public.verify(message, signature)
        verify_batch([(public, message, signature)])
        assert len(crypto._VERIFY_CACHE) == 1
        (key,) = crypto._VERIFY_CACHE
        assert message not in key
        assert hashlib.sha256(message).digest() in key

    def test_cache_hit_skips_verification_work(self):
        private, public = generate_keypair(b"hot")
        signature = private.sign(b"msg")
        public.verify(b"msg", signature)
        before = PERF.snapshot()
        assert public.verify(b"msg", signature)
        assert PERF.delta_since(before) == {"verify_cache_hits": 1}


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.binary(min_size=0, max_size=64), message=st.binary(max_size=256))
    def test_any_keypair_signs_any_message_low_s(self, seed, message):
        private, public = generate_keypair(seed)
        signature = private.sign(message)
        r, s = _parts(signature)
        assert 0 < r < N and 0 < s <= N // 2
        assert public.verify(message, signature)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.binary(min_size=1, max_size=32),
        message=st.binary(max_size=128),
        flip=st.integers(min_value=0, max_value=7),
    )
    def test_bitflip_in_message_rejected(self, seed, message, flip):
        private, public = generate_keypair(seed)
        signature = private.sign(message + b"!")
        tampered = bytearray(message + b"!")
        tampered[-1] ^= 1 << flip
        assert not public.verify(bytes(tampered), signature)

    @settings(max_examples=50, deadline=None)
    @given(signature=st.binary(min_size=64, max_size=64), message=st.binary(max_size=32))
    def test_random_64_byte_strings_never_verify(self, keypair, signature, message):
        _, public = keypair
        assert not public.verify(message, signature)
        assert verify_batch([(public, message, signature)]) == [False]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.binary(max_size=32))
    def test_from_seed_yields_valid_scalar(self, seed):
        private = PrivateKey.from_seed(seed)
        assert 1 <= private.x < N
