"""Tests for channel config, collection config and network assembly."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import ChaincodeDefinition, CollectionConfig
from repro.network.network import FabricNetwork
from repro.network.presets import five_org_network, three_org_network


class TestCollectionConfig:
    def test_member_orgs_from_policy(self):
        config = CollectionConfig(name="c", policy="OR('Org1MSP.member', 'Org2MSP.member')")
        assert config.member_orgs() == {"Org1MSP", "Org2MSP"}
        assert config.is_member_org("Org1MSP")
        assert not config.is_member_org("Org3MSP")

    def test_defaults_match_proto3(self):
        config = CollectionConfig(name="c", policy="OR('Org1MSP.member')")
        assert config.member_only_read is False
        assert config.member_only_write is False
        assert config.endorsement_policy is None
        assert config.block_to_live == 0

    def test_invalid_membership_policy_rejected(self):
        with pytest.raises(Exception):
            CollectionConfig(name="c", policy="NOT A POLICY((")

    def test_invalid_endorsement_policy_rejected(self):
        with pytest.raises(Exception):
            CollectionConfig(
                name="c", policy="OR('Org1MSP.member')", endorsement_policy="garbage(("
            )

    def test_peer_count_constraints(self):
        with pytest.raises(ConfigError):
            CollectionConfig(
                name="c", policy="OR('O.member')", required_peer_count=3, max_peer_count=1
            )
        with pytest.raises(ConfigError):
            CollectionConfig(name="c", policy="OR('O.member')", required_peer_count=-1)
        with pytest.raises(ConfigError):
            CollectionConfig(name="c", policy="OR('O.member')", block_to_live=-5)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            CollectionConfig(name="", policy="OR('O.member')")

    def test_to_json_dict(self):
        config = CollectionConfig(
            name="c",
            policy="OR('Org1MSP.member')",
            endorsement_policy="AND('Org1MSP.peer')",
            block_to_live=5,
        )
        doc = config.to_json_dict()
        assert doc["name"] == "c"
        assert doc["blockToLive"] == 5
        assert doc["endorsementPolicy"] == {"signaturePolicy": "AND('Org1MSP.peer')"}

    def test_to_json_dict_omits_absent_policy(self):
        config = CollectionConfig(name="c", policy="OR('Org1MSP.member')")
        assert "endorsementPolicy" not in config.to_json_dict()


class TestChaincodeDefinition:
    def test_collection_lookup(self):
        col = CollectionConfig(name="c", policy="OR('Org1MSP.member')")
        definition = ChaincodeDefinition(name="cc", endorsement_policy="ANY Endorsement",
                                         collections=(col,))
        assert definition.collection("c") is col
        with pytest.raises(ConfigError):
            definition.collection("nope")

    def test_block_to_live_map(self):
        col = CollectionConfig(name="c", policy="OR('Org1MSP.member')", block_to_live=7)
        definition = ChaincodeDefinition(name="cc", endorsement_policy="ANY Endorsement",
                                         collections=(col,))
        assert definition.block_to_live_map() == {("cc", "c"): 7}


class TestChannelConfig:
    def test_duplicate_org_rejected(self):
        org = Organization("Org1MSP")
        with pytest.raises(ConfigError):
            ChannelConfig(channel_id="ch", organizations=[org, org])

    def test_empty_channel_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig(channel_id="ch", organizations=[])

    def test_default_sub_policies_generated(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        assert set(channel.org_sub_policies) == {"Org1MSP", "Org2MSP", "Org3MSP"}

    def test_deploy_duplicate_chaincode_rejected(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        channel.deploy_chaincode("cc")
        with pytest.raises(ConfigError):
            channel.deploy_chaincode("cc")

    def test_collection_with_foreign_org_rejected(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        with pytest.raises(ConfigError):
            channel.deploy_chaincode(
                "cc",
                collections=[
                    CollectionConfig(name="c", policy="OR('StrangerMSP.member')")
                ],
            )

    def test_default_endorsement_policy_is_majority(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        definition = channel.deploy_chaincode("cc")
        assert definition.endorsement_policy == "MAJORITY Endorsement"

    def test_unknown_chaincode_lookup(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        with pytest.raises(ConfigError):
            channel.chaincode("ghost")

    def test_unknown_org_lookup(self, three_orgs):
        channel = ChannelConfig(channel_id="ch", organizations=three_orgs)
        with pytest.raises(ConfigError):
            channel.organization("GhostMSP")


class TestFabricNetwork:
    def test_duplicate_peer_rejected(self, channel):
        net = FabricNetwork(channel=channel)
        net.add_peer("Org1MSP")
        with pytest.raises(ConfigError):
            net.add_peer("Org1MSP")

    def test_peer_lookup(self, channel):
        net = FabricNetwork(channel=channel)
        peer = net.add_peer("Org1MSP")
        assert net.peer(peer.name) is peer
        with pytest.raises(ConfigError):
            net.peer("ghost")

    def test_default_endorsers_one_per_org(self, channel):
        net = FabricNetwork(channel=channel)
        for msp in ("Org1MSP", "Org2MSP", "Org3MSP"):
            net.add_peer(msp)
        net.add_peer("Org1MSP", "peer1")
        endorsers = net.default_endorsers()
        assert len(endorsers) == 3
        assert {p.msp_id for p in endorsers} == {"Org1MSP", "Org2MSP", "Org3MSP"}

    def test_default_peer_for_missing_org(self, channel):
        net = FabricNetwork(channel=channel)
        with pytest.raises(ConfigError):
            net.default_peer_for("Org1MSP")


class TestPresets:
    def test_three_org_topology(self):
        net = three_org_network()
        assert len(net.peers) == 3
        assert len(net.clients) == 3
        definition = net.network.channel.chaincode("pdccc")
        assert definition.endorsement_policy == "MAJORITY Endorsement"
        collection = definition.collection("PDC1")
        assert collection.member_orgs() == {"Org1MSP", "Org2MSP"}
        assert collection.endorsement_policy is None

    def test_three_org_with_collection_policy(self):
        net = three_org_network(collection_policy="AND('Org1MSP.peer', 'Org2MSP.peer')")
        collection = net.network.channel.collection("pdccc", "PDC1")
        assert collection.endorsement_policy == "AND('Org1MSP.peer', 'Org2MSP.peer')"

    def test_five_org_topology(self):
        net = five_org_network()
        assert len(net.peers) == 5
        definition = net.network.channel.chaincode("pdccc")
        assert "OutOf(2" in definition.endorsement_policy
        # Orgs 3-5 are PDC non-members.
        collection = definition.collection("PDC1")
        for org_num in (3, 4, 5):
            assert not collection.is_member_org(f"Org{org_num}MSP")

    def test_peer_and_client_accessors(self):
        net = three_org_network()
        assert net.peer_of(1).msp_id == "Org1MSP"
        assert net.client_of(2).msp_id == "Org2MSP"
