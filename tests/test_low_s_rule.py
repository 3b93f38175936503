"""One valid encoding per signature, at every layer that verifies one.

An ECDSA signature ``(r, s)`` has a twin, ``(r, n - s)``, that the raw
equation accepts just as well.  Fabric's MSP accepts only the low-S
form, so a relayed signature cannot be re-encoded into a second valid
one.  These tests hand each verifying layer — the CA, the MSP registry,
the client gateway and the block validator — the high-S twin of a
signature it accepts, and check that it refuses the twin.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, utils

from repro.common import crypto
from repro.common.crypto import N
from repro.common.errors import EndorsementError
from repro.identity.ca import CertificateAuthority, reset_ca_instance_counter
from repro.identity.msp import MSPRegistry
from repro.identity.roles import Role
from repro.ledger.block import Block
from repro.peer.validator import _shared_memo_for
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode


@pytest.fixture(autouse=True)
def _fresh_crypto_state():
    crypto.clear_caches()
    yield
    crypto.clear_caches()


def _twin(signature: bytes) -> bytes:
    """The high-S twin ``(r, n - s)`` of a 64-byte low-S signature."""
    s = int.from_bytes(signature[32:], "big")
    assert s <= N // 2
    return signature[:32] + (N - s).to_bytes(32, "big")


def _raw_ecdsa_accepts(public_key, message: bytes, signature: bytes) -> bool:
    """OpenSSL's verdict without the low-S rule."""
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    try:
        crypto._load_key(public_key.to_bytes()).verify(
            utils.encode_dss_signature(r, s), message, ec.ECDSA(hashes.SHA256())
        )
    except InvalidSignature:
        return False
    return True


def _twin_certificate(ca: CertificateAuthority, enrollment_id: str, role: Role):
    genuine = ca.enroll(enrollment_id, role).certificate
    twin = replace(genuine, issuer_signature=_twin(genuine.issuer_signature))
    # Not vacuous: the twin passes the raw equation.
    assert _raw_ecdsa_accepts(ca.root_public_key, twin.body_bytes(), twin.issuer_signature)
    return genuine, twin


class TestCertificates:
    def test_ca_rejects_a_high_s_twin_issuer_signature(self):
        ca = CertificateAuthority("Org1MSP")
        genuine, twin = _twin_certificate(ca, "peer0", Role.PEER)
        assert ca.validate(genuine)
        assert not ca.validate(twin)

    def test_msp_rejects_a_high_s_twin_certificate(self):
        registry = MSPRegistry()
        ca = CertificateAuthority("Org1MSP")
        registry.register(ca)
        genuine, twin = _twin_certificate(ca, "admin0", Role.ADMIN)
        assert registry.satisfies_principal(genuine, "Org1MSP", Role.ADMIN)
        assert not registry.validate_certificate(twin)
        assert not registry.satisfies_principal(twin, "Org1MSP", Role.ADMIN)


def _preset():
    from repro.chaincode.contracts import PrivateAssetContract
    from repro.network.presets import three_org_network

    reset_ca_instance_counter()
    reset_nonce_counter()
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    return net


def _submit(net, key: str):
    return net.client_of(1).submit_transaction(
        net.chaincode_id, "set_private", [net.collection, key],
        transient={"value": b"v"},
        endorsing_peers=[net.peer_of(1), net.peer_of(2)],
    )


def _validate(net, tx) -> ValidationCode:
    """Validate a one-transaction block at peer 1 without committing it."""
    peer = net.peer_of(1)
    block = Block.create(
        number=peer.ledger.height,
        prev_hash=peer.ledger.blockchain.last_hash(),
        transactions=(tx,),
    )
    _shared_memo_for(net.network.channel).clear()
    crypto.clear_verify_cache()
    (flag,) = peer._validator.validate_block(block, peer.ledger)
    return flag


class TestBlockValidation:
    def _resubmitted(self, net, tx_id: str, endorsements=None):
        """The first committed transaction under a new id, re-signed
        by its client, optionally carrying other endorsements."""
        committed = next(iter(net.peer_of(1).ledger.blockchain.blocks())).block.transactions[0]
        unsigned = replace(
            committed, tx_id=tx_id,
            endorsements=committed.endorsements if endorsements is None else endorsements,
            signature=b"",
        )
        client = net.client_of(1)
        return unsigned.with_signature(client.identity.sign(unsigned.signed_bytes()))

    def test_a_high_s_twin_creator_signature_is_a_bad_creator_signature(self):
        net = _preset()
        assert _submit(net, "creator-key").committed
        honest = self._resubmitted(net, "creator-twin")
        assert _validate(net, honest) is ValidationCode.VALID
        twin = honest.with_signature(_twin(honest.signature))
        assert _raw_ecdsa_accepts(twin.creator.public_key, twin.signed_bytes(), twin.signature)
        assert _validate(net, twin) is ValidationCode.BAD_CREATOR_SIGNATURE

    def test_high_s_twin_endorsements_count_for_no_policy(self):
        net = _preset()
        assert _submit(net, "endorse-key").committed
        honest = self._resubmitted(net, "endorse-honest")
        assert _validate(net, honest) is ValidationCode.VALID
        twins = tuple(
            replace(e, signature=_twin(e.signature)) for e in honest.endorsements
        )
        twin_tx = self._resubmitted(net, "endorse-twin", endorsements=twins)
        assert _validate(net, twin_tx) is ValidationCode.ENDORSEMENT_POLICY_FAILURE


class TestGateway:
    def test_gateway_refuses_a_high_s_twin_endorsement(self, monkeypatch):
        net = _preset()
        network = net.network
        honest_request = network.request_endorsement
        twinned = net.peer_of(2)

        def twin_one_endorser(peer, proposal, reusable=False):
            output = honest_request(peer, proposal, reusable=reusable)
            if peer is not twinned:
                return output
            endorsement = output.response.endorsement
            response = replace(
                output.response,
                endorsement=replace(endorsement, signature=_twin(endorsement.signature)),
            )
            return replace(output, response=response)

        monkeypatch.setattr(network, "request_endorsement", twin_one_endorser)
        with pytest.raises(EndorsementError, match="invalid endorsement signature"):
            _submit(net, "gateway-key")
        monkeypatch.setattr(network, "request_endorsement", honest_request)
        assert _submit(net, "gateway-key").committed
