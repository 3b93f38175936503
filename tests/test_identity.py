"""Tests for CAs, identities, organizations and MSP validation."""

from __future__ import annotations

import pytest

from repro.common.errors import IdentityError
from repro.identity.ca import CertificateAuthority
from repro.identity.identity import Certificate
from repro.identity.msp import MSPRegistry
from repro.identity.organization import Organization
from repro.identity.roles import Role


class TestRoles:
    def test_member_matches_everything(self):
        for role in Role:
            assert Role.MEMBER.matches(role)

    def test_peer_matches_only_peer(self):
        assert Role.PEER.matches(Role.PEER)
        assert not Role.PEER.matches(Role.CLIENT)
        assert not Role.PEER.matches(Role.ADMIN)

    def test_client_does_not_match_peer(self):
        assert not Role.CLIENT.matches(Role.PEER)


class TestCertificateAuthority:
    def test_enroll_produces_valid_certificate(self):
        ca = CertificateAuthority("Org1MSP")
        identity = ca.enroll("peer0", Role.PEER)
        assert ca.validate(identity.certificate)
        assert identity.msp_id == "Org1MSP"
        assert identity.role is Role.PEER

    def test_reenroll_same_role_same_keys(self):
        ca = CertificateAuthority("Org1MSP")
        first = ca.enroll("peer0", Role.PEER)
        second = ca.enroll("peer0", Role.PEER)
        assert first.certificate.public_key == second.certificate.public_key

    def test_reenroll_role_change_rejected(self):
        ca = CertificateAuthority("Org1MSP")
        ca.enroll("node", Role.PEER)
        with pytest.raises(IdentityError):
            ca.enroll("node", Role.CLIENT)

    def test_foreign_certificate_rejected(self):
        ca1 = CertificateAuthority("Org1MSP")
        ca2 = CertificateAuthority("Org2MSP")
        foreign = ca2.enroll("peer0", Role.PEER)
        assert not ca1.validate(foreign.certificate)

    def test_forged_certificate_rejected(self):
        """An attacker cannot mint a certificate without the CA key."""
        ca = CertificateAuthority("Org1MSP")
        genuine = ca.enroll("peer0", Role.PEER)
        forged = Certificate(
            enrollment_id="evil",
            msp_id="Org1MSP",
            role=Role.PEER,
            public_key=genuine.certificate.public_key,
            issuer_signature=genuine.certificate.issuer_signature,  # reused over wrong body
        )
        assert not ca.validate(forged)

    def test_role_tamper_rejected(self):
        ca = CertificateAuthority("Org1MSP")
        genuine = ca.enroll("client0", Role.CLIENT)
        escalated = Certificate(
            enrollment_id=genuine.certificate.enrollment_id,
            msp_id="Org1MSP",
            role=Role.ADMIN,
            public_key=genuine.certificate.public_key,
            issuer_signature=genuine.certificate.issuer_signature,
        )
        assert not ca.validate(escalated)

    def test_signing_identity_signs(self):
        ca = CertificateAuthority("Org1MSP")
        identity = ca.enroll("peer0", Role.PEER)
        signature = identity.sign(b"msg")
        assert identity.certificate.public_key.verify(b"msg", signature)


class TestMSPRegistry:
    def test_register_and_validate(self):
        registry = MSPRegistry()
        ca = CertificateAuthority("Org1MSP")
        registry.register(ca)
        identity = ca.enroll("peer0", Role.PEER)
        assert registry.validate_certificate(identity.certificate)

    def test_unknown_msp_rejected(self):
        registry = MSPRegistry()
        ca = CertificateAuthority("Org1MSP")
        identity = ca.enroll("peer0", Role.PEER)
        assert not registry.validate_certificate(identity.certificate)

    def test_duplicate_registration_rejected(self):
        registry = MSPRegistry()
        registry.register(CertificateAuthority("Org1MSP"))
        with pytest.raises(IdentityError):
            registry.register(CertificateAuthority("Org1MSP"))

    def test_satisfies_principal(self):
        registry = MSPRegistry()
        ca = CertificateAuthority("Org1MSP")
        registry.register(ca)
        peer = ca.enroll("peer0", Role.PEER)
        assert registry.satisfies_principal(peer.certificate, "Org1MSP", Role.PEER)
        assert registry.satisfies_principal(peer.certificate, "Org1MSP", Role.MEMBER)
        assert not registry.satisfies_principal(peer.certificate, "Org1MSP", Role.CLIENT)
        assert not registry.satisfies_principal(peer.certificate, "Org2MSP", Role.PEER)

    def test_validation_cached_result_stable(self):
        registry = MSPRegistry()
        ca = CertificateAuthority("Org1MSP")
        registry.register(ca)
        cert = ca.enroll("peer0", Role.PEER).certificate
        assert registry.validate_certificate(cert)
        assert registry.validate_certificate(cert)  # hits the cache

    def test_msp_ids_sorted(self):
        registry = MSPRegistry()
        registry.register(CertificateAuthority("B"))
        registry.register(CertificateAuthority("A"))
        assert registry.msp_ids() == ["A", "B"]


class TestOrganization:
    def test_enroll_helpers(self):
        org = Organization("Org1MSP")
        assert org.enroll_peer().role is Role.PEER
        assert org.enroll_client().role is Role.CLIENT
        assert org.enroll("orderer0", Role.ORDERER).role is Role.ORDERER
        assert org.enroll("admin", Role.ADMIN).role is Role.ADMIN

    def test_enrollment_ids_qualified(self):
        org = Organization("Org1MSP")
        peer = org.enroll_peer("peer0")
        assert peer.enrollment_id == "peer0.Org1MSP"

    def test_identities_listed(self):
        org = Organization("Org1MSP")
        org.enroll_peer("peer0")
        org.enroll_client("client0")
        assert len(org.identities()) == 2

    def test_repeated_enroll_is_lookup(self):
        org = Organization("Org1MSP")
        assert org.enroll_peer("peer0") is org.enroll_peer("peer0")


class TestCATrustModel:
    """Regression tests for the CA impersonation hole found by the
    policy property tests: keys must not be derivable from public names."""

    def test_lookalike_ca_certificates_rejected(self):
        genuine = CertificateAuthority("Org1MSP")
        imposter = CertificateAuthority("Org1MSP")
        victim_cert = imposter.enroll("peer0", Role.PEER).certificate
        assert not genuine.validate(victim_cert)

    def test_lookalike_ca_cannot_rederive_private_keys(self):
        genuine = CertificateAuthority("Org1MSP")
        imposter = CertificateAuthority("Org1MSP")
        real = genuine.enroll("peer0", Role.PEER)
        fake = imposter.enroll("peer0", Role.PEER)
        assert real.private_key.x != fake.private_key.x
        # The imposter's signature does not verify under the real cert.
        assert not real.certificate.public_key.verify(b"m", fake.sign(b"m"))

    def test_registry_rejects_lookalike_org(self):
        registry = MSPRegistry()
        genuine = CertificateAuthority("Org1MSP")
        registry.register(genuine)
        imposter_cert = (
            CertificateAuthority("Org1MSP").enroll("peer0", Role.PEER).certificate
        )
        assert not registry.validate_certificate(imposter_cert)

    def test_explicit_seed_still_reproducible(self):
        a = CertificateAuthority("Org1MSP", seed=b"fixed")
        b = CertificateAuthority("Org1MSP", seed=b"fixed")
        assert a.root_public_key == b.root_public_key
