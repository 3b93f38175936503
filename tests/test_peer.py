"""Tests for the peer: endorsement, validation and commit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaincode.contracts import PrivateAssetContract
from repro.common.errors import ConfigError, EndorsementError, KeyNotFoundError
from repro.common.hashing import sha256
from repro.core.defense.features import FrameworkFeatures
from repro.ledger.snapshot import PRIVATE_NAMESPACES
from repro.ledger.transient_store import NS_TRANSIENT
from repro.protocol.proposal import new_proposal
from repro.protocol.transaction import ValidationCode


def _client(network, org="Org1MSP"):
    return network.client(org)


def _proposal(network, function, args, transient=None, org="Org1MSP"):
    client_identity = network.channel.organization(org).enroll_client()
    return new_proposal(
        "testchannel", "pdccc", function, args, client_identity.certificate, transient
    )


class TestEndorser:
    def test_successful_endorsement(self, network):
        peer = network.peers_of("Org1MSP")[0]
        proposal = _proposal(network, "set_private", ["PDC1", "k"], {"value": b"1"})
        output = peer.endorse(proposal)
        assert output.response.ok
        assert output.response.endorsement.verify(output.response.payload.bytes())
        assert output.private_writes[0].writes[0].value == b"1"

    def test_endorsement_signed_by_peer(self, network):
        peer = network.peers_of("Org2MSP")[0]
        proposal = _proposal(network, "set_private", ["PDC1", "k"], {"value": b"1"})
        output = peer.endorse(proposal)
        assert output.response.endorsement.endorser.msp_id == "Org2MSP"

    def test_chaincode_failure_raises(self, network):
        peer = network.peers_of("Org1MSP")[0]
        proposal = _proposal(network, "get_private", ["PDC1", "missing"])
        with pytest.raises(EndorsementError) as exc_info:
            peer.endorse(proposal)
        assert getattr(exc_info.value, "response").status == 500

    def test_unknown_function_raises(self, network):
        peer = network.peers_of("Org1MSP")[0]
        with pytest.raises(EndorsementError):
            peer.endorse(_proposal(network, "no_such_fn", []))

    def test_uninstalled_chaincode_raises(self, network):
        peer = network.peers_of("Org1MSP")[0]
        client_identity = network.channel.organization("Org1MSP").enroll_client()
        proposal = new_proposal("testchannel", "ghostcc", "fn", [], client_identity.certificate)
        with pytest.raises(EndorsementError):
            peer.endorse(proposal)

    def test_install_requires_deployment(self, network):
        peer = network.peers_of("Org1MSP")[0]
        with pytest.raises(ConfigError):
            peer.install_chaincode("ghostcc", PrivateAssetContract())

    def test_feature2_signs_hashed_payload(self, channel):
        """Under New Feature 2 the signed payload is hash(original)."""
        from repro.network.network import FabricNetwork

        net = FabricNetwork(channel=channel, features=FrameworkFeatures.feature2_only())
        peer = net.add_peer("Org1MSP")
        peer2 = net.add_peer("Org2MSP")
        net.install_chaincode("pdccc", PrivateAssetContract())
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"99"}, endorsing_peers=[peer, peer2],
        ).raise_for_status()

        read = _proposal(net, "get_private", ["PDC1", "k"])
        output = peer.endorse(read)
        assert output.response.client_response.payload == b"99"
        assert output.response.payload.response.payload == sha256(b"99")
        assert output.response.endorsement.verify(output.response.payload.bytes())

    def test_feature2_leaves_public_tx_untouched(self, channel):
        from repro.chaincode.contracts import AssetContract
        from repro.network.network import FabricNetwork

        channel.deploy_chaincode("assetcc")
        net = FabricNetwork(channel=channel, features=FrameworkFeatures.feature2_only())
        peer = net.add_peer("Org1MSP")
        net.install_chaincode("assetcc", AssetContract())
        client_identity = net.channel.organization("Org1MSP").enroll_client()
        proposal = new_proposal(
            "testchannel", "assetcc", "create_asset", ["a", "5"], client_identity.certificate
        )
        output = peer.endorse(proposal)
        assert output.response.payload.response.payload == b""  # unhashed empty


class TestValidatorThroughPipeline:
    def _submit(self, network, function, args, transient=None, endorsers=None):
        client = _client(network)
        peers = endorsers or [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        return client.submit_transaction(
            "pdccc", function, args, transient=transient, endorsing_peers=peers
        )

    def test_valid_transaction_commits(self, network):
        result = self._submit(network, "set_private", ["PDC1", "k"], {"value": b"5"})
        assert result.status is ValidationCode.VALID

    def test_insufficient_endorsements_fail_policy(self, network):
        """MAJORITY of 3 orgs needs 2; one endorsement fails validation."""
        result = self._submit(
            network,
            "set_private",
            ["PDC1", "k"],
            {"value": b"5"},
            endorsers=[network.peers_of("Org1MSP")[0]],
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_two_peers_same_org_fail_majority(self, network):
        extra = network.add_peer("Org1MSP", "peer1")
        network.install_chaincode("pdccc", PrivateAssetContract(), peers=[extra])
        result = self._submit(
            network,
            "set_private",
            ["PDC1", "k"],
            {"value": b"5"},
            endorsers=[network.peers_of("Org1MSP")[0], extra],
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_tampered_creator_signature_rejected(self, network):
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        proposal = client._proposal("pdccc", "set_private", ["PDC1", "k"], {"value": b"5"})
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        envelope = client.assemble(proposal, responses)
        tampered = replace(envelope, signature=b"\x00" * len(envelope.signature))
        result = network.submit_envelope(tampered)
        assert result.status is ValidationCode.BAD_CREATOR_SIGNATURE

    def test_tampered_payload_breaks_endorsements(self, network):
        """Changing the response payload after endorsement invalidates it."""
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        proposal = client._proposal("pdccc", "set_private", ["PDC1", "k"], {"value": b"5"})
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        envelope = client.assemble(proposal, responses)
        forged_payload = replace(
            envelope.payload, response=replace(envelope.payload.response, payload=b"FORGED")
        )
        forged = replace(envelope, payload=forged_payload)
        forged = replace(forged, signature=client.identity.sign(forged.signed_bytes()))
        result = network.submit_envelope(forged)
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_duplicate_txid_rejected(self, network):
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        proposal = client._proposal("pdccc", "set_private", ["PDC1", "k"], {"value": b"5"})
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        envelope = client.assemble(proposal, responses)
        first = network.submit_envelope(envelope)
        assert first.status is ValidationCode.VALID
        peer = network.peers_of("Org1MSP")[0]
        network.orderer.submit(envelope)
        network.orderer.flush()
        network.runtime.run()  # deliver the cut block
        validated = list(peer.ledger.blockchain.blocks())[-1]
        assert validated.flags == [ValidationCode.DUPLICATE_TXID]

    def test_mvcc_conflict_between_blocks(self, network):
        """A stale read set is invalidated once the key moves on."""
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        self._submit(network, "set_private", ["PDC1", "k"], {"value": b"1"})
        # Endorse a read-modify-write now (captures version v1)...
        proposal = client._proposal("pdccc", "add_private", ["PDC1", "k", "1"])
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        stale = client.assemble(proposal, responses)
        # ...then move the key forward before submitting the stale tx.
        self._submit(network, "set_private", ["PDC1", "k"], {"value": b"7"})
        result = network.submit_envelope(stale)
        assert result.status is ValidationCode.MVCC_READ_CONFLICT

    def test_write_only_skips_version_check(self, network):
        """Write-only transactions have a null read set: no MVCC conflict
        even when the key churns between endorsement and commit."""
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        proposal = client._proposal("pdccc", "set_private", ["PDC1", "k"], {"value": b"1"})
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        parked = client.assemble(proposal, responses)
        self._submit(network, "set_private", ["PDC1", "k"], {"value": b"2"})
        result = network.submit_envelope(parked)
        assert result.status is ValidationCode.VALID

    def test_error_response_status_rejected(self, network):
        client = _client(network)
        peers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        proposal = client._proposal("pdccc", "set_private", ["PDC1", "k"], {"value": b"5"})
        responses = [network.request_endorsement(p, proposal).response for p in peers]
        envelope = client.assemble(proposal, responses)
        bad_payload = replace(
            envelope.payload, response=replace(envelope.payload.response, status=500)
        )
        bad = replace(envelope, payload=bad_payload)
        bad = replace(bad, signature=client.identity.sign(bad.signed_bytes()))
        result = network.submit_envelope(bad)
        assert result.status is ValidationCode.BAD_RESPONSE_STATUS


class TestCommitter:
    def test_private_write_lands_at_members_only(self, network):
        _client(network).submit_transaction(
            "pdccc",
            "set_private",
            ["PDC1", "k"],
            transient={"value": b"S"},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        ).raise_for_status()
        p1, p2, p3 = (network.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3))
        assert p1.query_private("pdccc", "PDC1", "k") == b"S"
        assert p2.query_private("pdccc", "PDC1", "k") == b"S"
        assert p3.query_private("pdccc", "PDC1", "k") is None
        # The hashes land everywhere.
        for peer in (p1, p2, p3):
            assert peer.query_private_hash("pdccc", "PDC1", "k") is not None

    def test_private_delete_removes_everywhere(self, network):
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        client = _client(network)
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=endorsers,
        ).raise_for_status()
        client.submit_transaction(
            "pdccc", "del_private", ["PDC1", "k"], endorsing_peers=endorsers
        ).raise_for_status()
        for i in (1, 2, 3):
            peer = network.peers_of(f"Org{i}MSP")[0]
            assert peer.query_private("pdccc", "PDC1", "k") is None
            assert peer.query_private_hash("pdccc", "PDC1", "k") is None

    def test_invalid_tx_not_applied(self, network):
        result = _client(network).submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"},
            endorsing_peers=[network.peers_of("Org1MSP")[0]],  # fails MAJORITY
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert network.peers_of("Org1MSP")[0].query_private("pdccc", "PDC1", "k") is None

    def test_transient_cleared_after_commit(self, network):
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        result = _client(network).submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=endorsers,
        )
        for peer in endorsers:
            assert not peer.ledger.transient_store.has(result.tx_id, "pdccc", "PDC1")

    def test_commit_listener_fires(self, network):
        events = []
        peer = network.peers_of("Org1MSP")[0]
        peer.on_commit(lambda p, validated: events.append(validated.number))
        _client(network).submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"},
            endorsing_peers=[peer, network.peers_of("Org2MSP")[0]],
        )
        assert events == [0]

    def test_committed_private_rwset_archived(self, network):
        endorsers = [network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]]
        result = _client(network).submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=endorsers,
        )
        [(tx_id, _, _, archived)] = endorsers[0].serve_private_batch(
            ((result.tx_id, "pdccc", "PDC1"),)
        )
        assert tx_id == result.tx_id and archived.writes[0].value == b"S"


class TestNonMemberEndorserCommitsHashesOnly:
    """A non-member that endorsed a PDC write keeps the hash and nothing else.

    Org3 sees the plaintext while it executes the proposal (the
    endorsement-time exposure of §IV-A5); once the block commits, its
    member-only stores hold nothing for PDC1, across a crash and reopen
    too, and a later read at Org3 fails as Use Case 1 describes.
    """

    @staticmethod
    def _member_only_rows(peer) -> dict:
        return {
            namespace: list(peer.ledger.backend.range(namespace))
            for namespace in PRIVATE_NAMESPACES + (NS_TRANSIENT,)
        }

    def _commit_with_org3(self, network):
        p1, p3 = network.peers_of("Org1MSP")[0], network.peers_of("Org3MSP")[0]
        result = _client(network).submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"S"}, endorsing_peers=[p1, p3],
        )
        result.raise_for_status()
        return result.tx_id, p1, p3

    def _assert_hashes_only(self, tx_id, member, outsider):
        assert outsider.query_private_hash("pdccc", "PDC1", "k") == sha256(b"S")
        assert outsider.query_private("pdccc", "PDC1", "k") is None
        assert outsider.serve_private_batch(((tx_id, "pdccc", "PDC1"),)) == []
        assert outsider.ledger.missing_private == []
        assert all(rows == [] for rows in self._member_only_rows(outsider).values())
        # The member endorser beside it keeps what Org3 may not.
        assert member.query_private("pdccc", "PDC1", "k") == b"S"
        assert member.serve_private_batch(((tx_id, "pdccc", "PDC1"),))

    def test_nonmember_endorser_stores_no_plaintext(self, network):
        tx_id, p1, p3 = self._commit_with_org3(network)
        self._assert_hashes_only(tx_id, p1, p3)

    def test_nothing_reappears_after_crash_and_reopen(self, network):
        tx_id, p1, p3 = self._commit_with_org3(network)
        p3.crash()
        p3.restart()
        self._assert_hashes_only(tx_id, p1, p3)

    def test_later_read_at_nonmember_fails_key_not_found(self, network):
        _, _, p3 = self._commit_with_org3(network)
        proposal = _proposal(network, "get_private", ["PDC1", "k"], org="Org3MSP")
        with pytest.raises(EndorsementError) as failure:
            p3.endorse(proposal)
        assert isinstance(failure.value.__cause__, KeyNotFoundError)
