"""Tests for multi-channel isolation (Fig. 1 of the paper).

Org2 participates in two channels (like P2 in Fig. 1): each channel has
its own ledger, its own chaincode deployment and its own PDC membership.
Nothing crosses channels — the coarser isolation layer PDC refines.
"""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork


@pytest.fixture
def two_channels():
    """C1 = {org1, org2, org4}; C2 = {org2, org3}; org2 is in both."""
    org1, org2, org3, org4 = (Organization(f"Org{i}MSP") for i in (1, 2, 3, 4))

    c1 = ChannelConfig(channel_id="C1", organizations=[org1, org2, org4])
    c1.deploy_chaincode(
        "s1",
        collections=[
            CollectionConfig(
                name="PDC1",
                policy="OR('Org1MSP.member', 'Org4MSP.member')",
                required_peer_count=0,
            )
        ],
    )
    net1 = FabricNetwork(channel=c1)
    for org in (org1, org2, org4):
        net1.add_peer(org.msp_id)
    net1.install_chaincode("s1", PrivateAssetContract())

    c2 = ChannelConfig(channel_id="C2", organizations=[org2, org3])
    c2.deploy_chaincode("s2", endorsement_policy="OR('Org2MSP.peer', 'Org3MSP.peer')")
    net2 = FabricNetwork(channel=c2)
    for org in (org2, org3):
        net2.add_peer(org.msp_id)
    net2.install_chaincode("s2", AssetContract())
    return net1, net2


class TestChannelIsolation:
    def test_separate_ledgers(self, two_channels):
        net1, net2 = two_channels
        net2.client("Org2MSP").submit_transaction(
            "s2", "create_asset", ["only-in-c2", "1"],
            endorsing_peers=[net2.default_peer_for("Org2MSP")],
        ).raise_for_status()
        # org2's C1 peer knows nothing about it.
        assert net1.default_peer_for("Org2MSP").query_public("s2", "asset:only-in-c2") is None
        assert net1.default_peer_for("Org2MSP").ledger.height == 0
        assert net2.default_peer_for("Org2MSP").ledger.height == 1

    def test_same_org_distinct_peer_instances(self, two_channels):
        net1, net2 = two_channels
        p_c1 = net1.default_peer_for("Org2MSP")
        p_c2 = net2.default_peer_for("Org2MSP")
        assert p_c1 is not p_c2
        assert p_c1.msp_id == p_c2.msp_id == "Org2MSP"

    def test_outsider_org_cannot_transact(self, two_channels):
        """org3 is not in C1: its certificates chain to no C1 trust root."""
        net1, _ = two_channels
        assert not net1.channel.msp_registry.is_known("Org3MSP")

    def test_pdc_membership_is_per_channel(self, two_channels):
        """PDC1 in C1 is shared by org1+org4; org2 (in the channel) holds
        only hashes — the Fig. 1 P2 situation exactly."""
        net1, _ = two_channels
        members = [net1.default_peer_for("Org1MSP"), net1.default_peer_for("Org4MSP")]
        net1.client("Org1MSP").submit_transaction(
            "s1", "set_private", ["PDC1", "k"],
            transient={"value": b"p"}, endorsing_peers=members,
        ).raise_for_status()
        assert net1.default_peer_for("Org1MSP").query_private("s1", "PDC1", "k") == b"p"
        assert net1.default_peer_for("Org4MSP").query_private("s1", "PDC1", "k") == b"p"
        org2_peer = net1.default_peer_for("Org2MSP")
        assert org2_peer.query_private("s1", "PDC1", "k") is None
        assert org2_peer.query_private_hash("s1", "PDC1", "k") is not None

    def test_chaincode_not_deployed_cross_channel(self, two_channels):
        from repro.common.errors import ConfigError

        net1, net2 = two_channels
        with pytest.raises(ConfigError):
            net1.channel.chaincode("s2")
        with pytest.raises(ConfigError):
            net2.channel.chaincode("s1")


class TestMultiChannelValidateBlocks:
    """Re-validating one committed block per channel from scratch."""

    def _jobs(self, two_channels):
        """Commit one block per channel; pair each with a fresh validator
        and ledger that have not seen it."""
        net1, net2 = two_channels
        members = [net1.default_peer_for("Org1MSP"), net1.default_peer_for("Org4MSP")]
        net1.client("Org1MSP").submit_transaction(
            "s1", "set_private", ["PDC1", "k"],
            transient={"value": b"v"}, endorsing_peers=members,
        ).raise_for_status()
        net2.client("Org2MSP").submit_transaction(
            "s2", "create_asset", ["a1", "5"],
            endorsing_peers=[net2.default_peer_for("Org2MSP")],
        ).raise_for_status()
        block1 = next(net1.peers()[0].ledger.blockchain.blocks()).block
        block2 = next(net2.peers()[0].ledger.blockchain.blocks()).block
        from repro.ledger.ledger import PeerLedger
        from repro.peer.validator import Validator

        # The shared VSCC memo would answer a re-validation from the
        # committing peers' flags; pin it off so the pipelines (and their
        # signature checks) actually run.
        return [
            (
                Validator(
                    channel=net.channel, features=net.features,
                    use_shared_memo=False,
                ),
                block,
                PeerLedger(None),
            )
            for net, block in ((net1, block1), (net2, block2))
        ]

    def test_flags_identical_to_per_job_validation(self, two_channels):
        from repro.common import crypto
        from repro.common.tracing import PERF
        from repro.protocol.transaction import ValidationCode

        net1, net2 = two_channels
        jobs = self._jobs(two_channels)
        # The flags the committing peers recorded are the reference.
        committed = [
            list(next(net.peers()[0].ledger.blockchain.blocks()).flags)
            for net in (net1, net2)
        ]
        signatures = sum(
            len(validator._collect_signature_items(block, ledger, None))
            for validator, block, ledger in jobs
        )
        assert signatures >= 3  # creator+2 endorsers / creator
        crypto.clear_verify_cache()
        before = PERF.snapshot()
        flags = [
            validator.validate_block(block, ledger)
            for validator, block, ledger in jobs
        ]
        delta = PERF.delta_since(before)
        assert flags == committed
        assert all(flag is ValidationCode.VALID for fs in flags for flag in fs)
        # Each block's pre-pass settles its signatures, one equation each;
        # every rule's later check is a memo hit.
        assert delta.get("verify_individual", 0) == signatures
        assert delta.get("verify_cache_hits", 0) >= signatures

    def test_each_channel_station_prices_its_own_block(self, two_channels):
        """A channel's runtime charges each of its blocks, at every peer,
        that channel's price times the block's size."""
        from repro.runtime import LatencyModel, ValidationCostModel

        net1, net2 = two_channels
        members = [net1.default_peer_for("Org1MSP"), net1.default_peer_for("Org4MSP")]
        drives = (
            (net1, 0.5, lambda: [
                net1.client("Org1MSP").submit_async(
                    "s1", "set_private", ["PDC1", "k"],
                    transient={"value": b"v"}, endorsing_peers=members,
                )
            ]),
            (net2, 1.5, lambda: [
                net2.client("Org2MSP").submit_async(
                    "s2", "create_asset", [f"a{i}", "5"],
                    endorsing_peers=[net2.default_peer_for("Org2MSP")],
                )
                for i in range(3)
            ]),
        )
        for net, per_tx, submit in drives:
            runtime = net.attach_runtime(
                seed=1, latency=LatencyModel(base=1.0),
                validate_cost=ValidationCostModel(per_transaction=per_tx),
            )
            arrivals = {}
            commits = []
            receive = runtime._commit_at_peer

            def record_arrival(peer, block, runtime=runtime, receive=receive,
                               arrivals=arrivals):
                arrivals[(peer.name, block.header.number)] = runtime.now
                receive(peer, block)

            runtime._commit_at_peer = record_arrival
            for peer in net.peers():
                peer.on_commit(lambda p, v, runtime=runtime, commits=commits:
                               commits.append((p.name, v.block, runtime.now)))
            pendings = submit()
            runtime.run()
            assert all(p.result().status.name == "VALID" for p in pendings)
            assert sorted(arrivals) == sorted(
                (name, block.header.number) for name, block, _ in commits
            )
            assert {name for name, _, _ in commits} == {p.name for p in net.peers()}
            for peer in net.peers():
                # FIFO: a block starts when it arrives or when the block
                # ahead of it is done, whichever is later.
                free = 0.0
                for name, block, at in commits:
                    if name != peer.name:
                        continue
                    start = max(arrivals[(name, block.header.number)], free)
                    free = start + per_tx * len(block.transactions)
                    assert at == free
