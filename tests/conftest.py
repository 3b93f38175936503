"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.network.presets import three_org_network


@pytest.fixture
def three_orgs():
    """Three fresh organizations Org1MSP..Org3MSP."""
    return [Organization(f"Org{i}MSP") for i in (1, 2, 3)]


@pytest.fixture
def channel(three_orgs):
    """A channel over the three orgs with one PDC chaincode deployed."""
    config = ChannelConfig(channel_id="testchannel", organizations=three_orgs)
    config.deploy_chaincode(
        "pdccc",
        endorsement_policy="MAJORITY Endorsement",
        collections=[
            CollectionConfig(
                name="PDC1",
                policy="OR('Org1MSP.member', 'Org2MSP.member')",
                required_peer_count=0,
                max_peer_count=3,
            )
        ],
    )
    return config


@pytest.fixture
def network(channel):
    """A running network over the channel with one peer per org."""
    net = FabricNetwork(channel=channel)
    for org in channel.organizations:
        net.add_peer(org.msp_id)
    net.install_chaincode("pdccc", PrivateAssetContract())
    return net


@pytest.fixture
def preset():
    """The §V three-org preset with the honest PDC contract installed."""
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    return net


@pytest.fixture
def public_network(channel):
    """Network with a public-data chaincode as well."""
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel)
    for org in channel.organizations:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    net.install_chaincode("pdccc", PrivateAssetContract())
    return net
