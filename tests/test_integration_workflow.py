"""End-to-end integration tests of the three-phase workflow (Fig. 2)."""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common.hashing import hash_value
from repro.protocol.transaction import ValidationCode


@pytest.fixture
def endorsers(public_network):
    return [
        public_network.peers_of("Org1MSP")[0],
        public_network.peers_of("Org2MSP")[0],
    ]


class TestPublicDataWorkflow:
    def test_create_read_update_delete(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "assetcc", "create_asset", ["a1", "100"], endorsing_peers=endorsers
        ).raise_for_status()
        assert client.evaluate_transaction("assetcc", "read_asset", ["a1"]) == b"100"

        client.submit_transaction(
            "assetcc", "update_asset", ["a1", "200"], endorsing_peers=endorsers
        ).raise_for_status()
        client.submit_transaction(
            "assetcc", "add_to_asset", ["a1", "50"], endorsing_peers=endorsers
        ).raise_for_status()
        assert client.evaluate_transaction("assetcc", "read_asset", ["a1"]) == b"250"

        client.submit_transaction(
            "assetcc", "delete_asset", ["a1"], endorsing_peers=endorsers
        ).raise_for_status()
        for peer in public_network.peers():
            assert peer.query_public("assetcc", "asset:a1") is None

    def test_state_converges_across_all_peers(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "assetcc", "create_asset", ["a", "7"], endorsing_peers=endorsers
        ).raise_for_status()
        values = {p.query_public("assetcc", "asset:a") for p in public_network.peers()}
        assert values == {b"7"}

    def test_blockchains_identical_across_peers(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        for i in range(3):
            client.submit_transaction(
                "assetcc", "create_asset", [f"a{i}", str(i)], endorsing_peers=endorsers
            ).raise_for_status()
        chains = [
            [v.block.header.block_hash() for v in p.ledger.blockchain.blocks()]
            for p in public_network.peers()
        ]
        assert chains[0] == chains[1] == chains[2]
        for peer in public_network.peers():
            assert peer.ledger.blockchain.verify_chain()

    def test_transfer_asset_multi_key(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "assetcc", "create_asset", ["src", "9"], endorsing_peers=endorsers
        ).raise_for_status()
        client.submit_transaction(
            "assetcc", "transfer_asset", ["src", "dst"], endorsing_peers=endorsers
        ).raise_for_status()
        peer = public_network.peers()[0]
        assert peer.query_public("assetcc", "asset:src") is None
        assert peer.query_public("assetcc", "asset:dst") == b"9"


class TestPrivateDataWorkflow:
    def test_full_pdc_lifecycle(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k1"],
            transient={"value": b"P1"}, endorsing_peers=endorsers,
        ).raise_for_status()

        p1, p2, p3 = (public_network.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3))
        # Members hold original + hash, non-members only the hash.
        assert p1.query_private("pdccc", "PDC1", "k1") == b"P1"
        assert p2.query_private("pdccc", "PDC1", "k1") == b"P1"
        assert p3.query_private("pdccc", "PDC1", "k1") is None
        assert p3.query_private_hash("pdccc", "PDC1", "k1") == hash_value(b"P1")

        # Update, then delete.
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k1"],
            transient={"value": b"P2"}, endorsing_peers=endorsers,
        ).raise_for_status()
        assert p2.query_private("pdccc", "PDC1", "k1") == b"P2"
        client.submit_transaction(
            "pdccc", "del_private", ["PDC1", "k1"], endorsing_peers=endorsers
        ).raise_for_status()
        assert p1.query_private("pdccc", "PDC1", "k1") is None
        assert p3.query_private_hash("pdccc", "PDC1", "k1") is None

    def test_numeric_add_and_versions(self, public_network, endorsers):
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "n"],
            transient={"value": b"10"}, endorsing_peers=endorsers,
        ).raise_for_status()
        client.submit_transaction(
            "pdccc", "add_private", ["PDC1", "n", "5"], endorsing_peers=endorsers
        ).raise_for_status()
        p1 = public_network.peers_of("Org1MSP")[0]
        p3 = public_network.peers_of("Org3MSP")[0]
        assert p1.query_private("pdccc", "PDC1", "n") == b"15"
        # Hash store version advanced identically at non-members.
        entry_member = p1.ledger.private_hashes.get_by_key("pdccc", "PDC1", "n")
        entry_nonmember = p3.ledger.private_hashes.get_by_key("pdccc", "PDC1", "n")
        assert entry_member.version == entry_nonmember.version

    def test_hash_verification_function(self, public_network, endorsers):
        client = public_network.client("Org3MSP")
        public_network.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"secret"}, endorsing_peers=endorsers,
        ).raise_for_status()
        # A non-member can verify a claimed value against the hash store.
        p3 = public_network.peers_of("Org3MSP")[0]
        assert client.evaluate_transaction(
            "pdccc", "verify_private", ["PDC1", "k", "secret"], peer=p3
        ) == b"match"
        assert client.evaluate_transaction(
            "pdccc", "verify_private", ["PDC1", "k", "wrong"], peer=p3
        ) == b"mismatch"

    def test_concurrent_updates_one_wins(self, public_network, endorsers):
        """Two read-modify-writes endorsed against the same version: the
        second to order loses the MVCC check."""
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "n"],
            transient={"value": b"10"}, endorsing_peers=endorsers,
        ).raise_for_status()
        proposal_a = client._proposal("pdccc", "add_private", ["PDC1", "n", "1"])
        responses_a = [
            public_network.request_endorsement(p, proposal_a).response for p in endorsers
        ]
        proposal_b = client._proposal("pdccc", "add_private", ["PDC1", "n", "100"])
        responses_b = [
            public_network.request_endorsement(p, proposal_b).response for p in endorsers
        ]
        result_a = public_network.submit_envelope(client.assemble(proposal_a, responses_a))
        result_b = public_network.submit_envelope(client.assemble(proposal_b, responses_b))
        assert result_a.status is ValidationCode.VALID
        assert result_b.status is ValidationCode.MVCC_READ_CONFLICT
        assert public_network.peers_of("Org1MSP")[0].query_private(
            "pdccc", "PDC1", "n"
        ) == b"11"

    def test_intra_block_conflict(self, public_network, endorsers):
        """Same conflict, but both transactions land in ONE block."""
        client = public_network.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "n"],
            transient={"value": b"10"}, endorsing_peers=endorsers,
        ).raise_for_status()
        envelopes = []
        for delta in ("1", "100"):
            proposal = client._proposal("pdccc", "add_private", ["PDC1", "n", delta])
            responses = [
                public_network.request_endorsement(p, proposal).response for p in endorsers
            ]
            envelopes.append(client.assemble(proposal, responses))
        # Submit both into the same block (batch them by bypassing flush).
        public_network.orderer.submit(envelopes[0])
        public_network.orderer.submit(envelopes[1])
        public_network.orderer.flush()
        public_network.runtime.run()  # deliver the cut block
        peer = public_network.peers_of("Org1MSP")[0]
        flags = [peer.transaction_status(e.tx_id) for e in envelopes]
        assert flags == [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]


class TestBlockToLive:
    def test_private_data_purged_after_btl(self, three_orgs):
        from repro.network.channel import ChannelConfig
        from repro.network.collection import CollectionConfig
        from repro.network.network import FabricNetwork

        channel = ChannelConfig(channel_id="btl", organizations=three_orgs)
        channel.deploy_chaincode(
            "pdccc",
            collections=[
                CollectionConfig(
                    name="PDC1",
                    policy="OR('Org1MSP.member', 'Org2MSP.member')",
                    required_peer_count=0,
                    block_to_live=2,
                )
            ],
        )
        net = FabricNetwork(channel=channel)
        peers = [net.add_peer(f"Org{i}MSP") for i in (1, 2, 3)]
        net.install_chaincode("pdccc", PrivateAssetContract())
        client = net.client("Org1MSP")
        endorsers = peers[:2]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "ephemeral"],
            transient={"value": b"x"}, endorsing_peers=endorsers,
        ).raise_for_status()
        assert peers[0].query_private("pdccc", "PDC1", "ephemeral") == b"x"
        # Push 3 more blocks past the BTL horizon.
        for i in range(3):
            client.submit_transaction(
                "pdccc", "set_private", ["PDC1", f"filler{i}"],
                transient={"value": b"y"}, endorsing_peers=endorsers,
            ).raise_for_status()
        assert peers[0].query_private("pdccc", "PDC1", "ephemeral") is None
        # The hash never expires.
        assert peers[0].query_private_hash("pdccc", "PDC1", "ephemeral") is not None
