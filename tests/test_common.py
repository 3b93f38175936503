"""Tests for the small common utilities: hashing, errors."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import errors
from repro.common.hashing import chain_hash, hash_key, hash_value, sha256, sha256_hex


class TestHashing:
    def test_sha256_matches_stdlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()
        assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()

    def test_hash_key_is_utf8_sha256(self):
        assert hash_key("k1") == hashlib.sha256(b"k1").digest()

    def test_hash_value_is_raw_sha256(self):
        assert hash_value(b"v") == hashlib.sha256(b"v").digest()

    def test_chain_hash_binds_both_inputs(self):
        base = chain_hash(b"\x00" * 32, b"\x01" * 32)
        assert chain_hash(b"\x02" * 32, b"\x01" * 32) != base
        assert chain_hash(b"\x00" * 32, b"\x02" * 32) != base

    @settings(max_examples=100, deadline=None)
    @given(a=st.binary(max_size=64), b=st.binary(max_size=64))
    def test_hash_collision_freedom_on_samples(self, a, b):
        if a != b:
            assert sha256(a) != sha256(b)

    def test_digest_length(self):
        assert len(sha256(b"")) == 32
        assert len(sha256_hex(b"")) == 64


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.ConfigError,
            errors.IdentityError,
            errors.PolicyError,
            errors.LedgerError,
            errors.KeyNotFoundError,
            errors.ChaincodeError,
            errors.EndorsementError,
            errors.ProposalResponseMismatchError,
            errors.OrderingError,
            errors.TransactionInvalidError,
            errors.GossipError,
            errors.AnalyzerError,
            errors.CorpusError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exc_class):
        assert issubclass(exc_class, errors.ReproError)

    def test_key_not_found_message(self):
        exc = errors.KeyNotFoundError("cc", "k1", collection="PDC1")
        assert "k1" in str(exc) and "PDC1" in str(exc)
        assert exc.namespace == "cc"

    def test_key_not_found_without_collection(self):
        exc = errors.KeyNotFoundError("cc", "k1")
        assert "collection" not in str(exc)

    def test_transaction_invalid_carries_code(self):
        exc = errors.TransactionInvalidError("tid", "MVCC_READ_CONFLICT")
        assert exc.tx_id == "tid" and exc.code == "MVCC_READ_CONFLICT"

    def test_mismatch_is_endorsement_error(self):
        assert issubclass(errors.ProposalResponseMismatchError, errors.EndorsementError)

    def test_key_not_found_is_ledger_error(self):
        assert issubclass(errors.KeyNotFoundError, errors.LedgerError)

    def test_single_except_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.GossipError("x")
