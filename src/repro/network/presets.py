"""The prototype networks of Section V.

Three presets reproduce the paper's experimental setups:

* :func:`three_org_network` — orgs 1-3, one peer + one client each, PDC1
  shared by org1 and org2, chaincode-level ``MAJORITY Endorsement``
  (the default and, per the GitHub study, by far the most common policy).
* :func:`five_org_network` — adds org4 and org5 with the chaincode-level
  ``2OutOf(org1..org5)`` policy of §V-A5.
* :func:`wide_member_network` — every org a PDC1 member, the gossip
  fan-out ablation's network.
* any preset accepts ``collection_policy`` to add the §V-A6
  collection-level ``AND(org1, org2)`` policy, and ``features`` to run on
  the defended (modified) framework.

All presets deploy the chaincode *definition*; experiments install the
actual contracts (honest, constrained, or malicious) per peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chaincode.contracts import PrivateAssetContract
from repro.client.gateway import Gateway
from repro.core.defense.features import FrameworkFeatures
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.peer.node import PeerNode
from repro.protocol.proposal import reset_nonce_counter

CHAINCODE = "pdccc"
COLLECTION = "PDC1"
CHANNEL = "mychannel"
PRIVATE_KEY_NAME = "k1"


@dataclass
class TestNetwork:
    """A preset network plus handles to its peers and clients."""

    network: FabricNetwork
    peers: dict[str, PeerNode]  # "peer0.Org1MSP" -> node
    clients: dict[str, Gateway]  # "Org1MSP" -> gateway
    chaincode_id: str = CHAINCODE
    collection: str = COLLECTION

    def peer_of(self, org_num: int) -> PeerNode:
        return self.peers[f"peer0.Org{org_num}MSP"]

    def client_of(self, org_num: int) -> Gateway:
        return self.clients[f"Org{org_num}MSP"]


def _build(
    org_count: int,
    member_org_nums: tuple[int, ...],
    chaincode_policy: str,
    collection_policy: Optional[str],
    features: FrameworkFeatures,
    required_peer_count: int = 1,
    max_peer_count: int = 3,
    batch_size: int = 1,
) -> TestNetwork:
    organizations = [Organization(f"Org{i}MSP") for i in range(1, org_count + 1)]
    channel = ChannelConfig(channel_id=CHANNEL, organizations=organizations)
    members = ", ".join(f"'Org{i}MSP.member'" for i in member_org_nums)
    channel.deploy_chaincode(
        CHAINCODE,
        endorsement_policy=chaincode_policy,
        collections=[
            CollectionConfig(
                name=COLLECTION,
                policy=f"OR({members})",
                required_peer_count=required_peer_count,
                max_peer_count=max_peer_count,
                endorsement_policy=collection_policy,
            )
        ],
    )
    network = FabricNetwork(channel=channel, features=features, batch_size=batch_size)
    peers = {}
    clients = {}
    for org in organizations:
        peer = network.add_peer(org.msp_id, "peer0")
        peers[peer.name] = peer
        clients[org.msp_id] = network.client(org.msp_id, "client0")
    return TestNetwork(network=network, peers=peers, clients=clients)


def three_org_network(
    collection_policy: Optional[str] = None,
    features: FrameworkFeatures | None = None,
    batch_size: int = 1,
) -> TestNetwork:
    """The §V-A prototype: 3 orgs, PDC1 = {org1, org2}, MAJORITY policy.

    ``batch_size`` feeds the orderer's block cutter; it only matters once
    submissions are pipelined (a lone synchronous submit into a larger
    batch is cut by the batch timeout, in simulated time).
    """
    return _build(
        org_count=3,
        member_org_nums=(1, 2),
        chaincode_policy="MAJORITY Endorsement",
        collection_policy=collection_policy,
        features=features or FrameworkFeatures.original(),
        batch_size=batch_size,
    )


def wide_member_network(max_peer_count: int, member_count: int = 5) -> TestNetwork:
    """Every org a PDC1 member, so ``MaxPeerCount`` alone sets the fan-out.

    Tx ids, and with them the seeded push rotation, come from
    process-global counters; they are reset here so the push targets do
    not depend on what ran earlier in the process.
    """
    reset_ca_instance_counter()
    reset_nonce_counter()
    net = _build(
        org_count=member_count,
        member_org_nums=tuple(range(1, member_count + 1)),
        chaincode_policy="MAJORITY Endorsement",
        collection_policy=None,
        features=FrameworkFeatures.original(),
        required_peer_count=0,
        max_peer_count=max_peer_count,
    )
    net.network.install_chaincode(CHAINCODE, PrivateAssetContract())
    return net


def five_org_network(
    collection_policy: Optional[str] = None,
    features: FrameworkFeatures | None = None,
) -> TestNetwork:
    """The §V-A5 prototype: 5 orgs, PDC1 = {org1, org2}, 2OutOf policy."""
    policy = (
        "OutOf(2, 'Org1MSP.peer', 'Org2MSP.peer', 'Org3MSP.peer', "
        "'Org4MSP.peer', 'Org5MSP.peer')"
    )
    return _build(
        org_count=5,
        member_org_nums=(1, 2),
        chaincode_policy=policy,
        collection_policy=collection_policy,
        features=features or FrameworkFeatures.original(),
    )
