"""Tests for the wire messages: proposals, responses, envelopes."""

from __future__ import annotations

from dataclasses import replace

from repro.chaincode.rwset import TxReadWriteSet
from repro.common.hashing import sha256
from repro.identity.organization import Organization
from repro.protocol.proposal import new_proposal, next_nonce
from repro.protocol.response import (
    STATUS_OK,
    ChaincodeResponse,
    Endorsement,
    ProposalResponsePayload,
)
from repro.protocol.transaction import TransactionEnvelope


def _client():
    return Organization("Org1MSP").enroll_client()


class TestProposal:
    def test_tx_id_unique_per_nonce(self):
        client = _client()
        p1 = new_proposal("ch", "cc", "fn", ["a"], client.certificate)
        p2 = new_proposal("ch", "cc", "fn", ["a"], client.certificate)
        assert p1.tx_id != p2.tx_id

    def test_tx_id_is_hash_of_nonce_and_creator(self):
        client = _client()
        proposal = new_proposal("ch", "cc", "fn", [], client.certificate)
        expected = sha256(proposal.nonce + client.certificate.body_bytes()).hex()
        assert proposal.tx_id == expected

    def test_transient_excluded_from_signed_bytes(self):
        """The private input must never reach anything that gets signed,
        hashed or ordered."""
        client = _client()
        secret = b"super-secret"
        with_transient = new_proposal(
            "ch", "cc", "fn", ["a"], client.certificate, transient={"v": secret}
        )
        assert secret not in with_transient.header_bytes()
        # Same content minus transient hashes identically.
        twin = replace(with_transient, transient={})
        assert twin.proposal_hash() == with_transient.proposal_hash()

    def test_nonces_monotonic(self):
        assert next_nonce() != next_nonce()


class TestChaincodeResponse:
    def test_ok_flag(self):
        assert ChaincodeResponse(status=STATUS_OK).ok
        assert not ChaincodeResponse(status=500).ok

    def test_with_hashed_payload(self):
        response = ChaincodeResponse(payload=b"secret")
        hashed = response.with_hashed_payload()
        assert hashed.payload == sha256(b"secret")
        assert hashed.status == response.status


class TestProposalResponsePayload:
    def _payload(self, payload_bytes=b"value"):
        return ProposalResponsePayload(
            proposal_hash=b"\x01" * 32,
            results=TxReadWriteSet(),
            response=ChaincodeResponse(payload=payload_bytes),
        )

    def test_bytes_deterministic(self):
        assert self._payload().bytes() == self._payload().bytes()

    def test_different_payloads_different_bytes(self):
        assert self._payload(b"a").bytes() != self._payload(b"b").bytes()

    def test_with_hashed_payload_changes_bytes(self):
        payload = self._payload()
        assert payload.with_hashed_payload().bytes() != payload.bytes()


class TestEndorsement:
    def test_verify_roundtrip(self):
        peer = Organization("Org1MSP").enroll_peer()
        message = b"payload-bytes"
        endorsement = Endorsement(endorser=peer.certificate, signature=peer.sign(message))
        assert endorsement.verify(message)
        assert not endorsement.verify(message + b"!")


class TestTransactionEnvelope:
    def _envelope(self):
        client = _client()
        payload = ProposalResponsePayload(
            proposal_hash=b"\x02" * 32,
            results=TxReadWriteSet(),
            response=ChaincodeResponse(payload=b"x"),
        )
        unsigned = TransactionEnvelope(
            tx_id="tid", channel_id="ch", chaincode_id="cc",
            creator=client.certificate, payload=payload, endorsements=(),
            signature=b"", function="fn", args=("a",),
        )
        return replace(unsigned, signature=client.sign(unsigned.signed_bytes())), client

    def test_creator_signature_verifies(self):
        envelope, _ = self._envelope()
        assert envelope.verify_creator_signature()

    def test_tampered_args_break_signature(self):
        envelope, _ = self._envelope()
        tampered = replace(envelope, args=("b",))
        assert not tampered.verify_creator_signature()

    def test_tampered_function_breaks_signature(self):
        envelope, _ = self._envelope()
        assert not replace(envelope, function="other").verify_creator_signature()
