"""Tests for the chaincode lifecycle (approve-then-commit)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.lifecycle import ChaincodeLifecycle


@pytest.fixture
def lifecycle(three_orgs):
    channel = ChannelConfig(channel_id="lc", organizations=three_orgs)
    return ChaincodeLifecycle(channel), channel


COLLECTION = CollectionConfig(name="PDC1", policy="OR('Org1MSP.member', 'Org2MSP.member')")


class TestApproval:
    def test_majority_threshold_of_three(self, lifecycle):
        cycle, _ = lifecycle
        assert cycle.approvals_needed() == 2

    def test_single_approval_not_ready(self, lifecycle):
        cycle, _ = lifecycle
        cycle.approve_for_org("Org1MSP", "cc", "1.0", 1, collections=[COLLECTION])
        readiness = cycle.check_commit_readiness("cc")
        assert readiness == {"Org1MSP": True, "Org2MSP": False, "Org3MSP": False}
        with pytest.raises(ConfigError, match="not ready"):
            cycle.commit("cc")

    def test_majority_commits(self, lifecycle):
        cycle, channel = lifecycle
        for msp in ("Org1MSP", "Org2MSP"):
            cycle.approve_for_org(msp, "cc", "1.0", 1, collections=[COLLECTION])
        definition = cycle.commit("cc")
        assert channel.chaincode("cc") is definition
        assert definition.collection("PDC1").member_orgs() == {"Org1MSP", "Org2MSP"}
        assert cycle.committed_sequence("cc") == 1

    def test_divergent_approval_does_not_count(self, lifecycle):
        """Org2 approves a DIFFERENT collection config — that is approval
        of a different definition and must not satisfy the policy."""
        cycle, _ = lifecycle
        cycle.approve_for_org("Org1MSP", "cc", "1.0", 1, collections=[COLLECTION])
        other = CollectionConfig(
            name="PDC1",
            policy="OR('Org2MSP.member', 'Org3MSP.member')",  # different members!
        )
        cycle.approve_for_org("Org2MSP", "cc", "1.0", 1, collections=[other])
        readiness = cycle.check_commit_readiness("cc")
        # Org2's divergent approval replaced nothing; reference is Org1's?
        # No: approve_for_org keeps the FIRST proposal as reference.
        assert readiness["Org1MSP"] is True
        assert readiness["Org2MSP"] is False
        with pytest.raises(ConfigError):
            cycle.commit("cc")

    def test_divergent_policy_does_not_count(self, lifecycle):
        cycle, _ = lifecycle
        cycle.approve_for_org("Org1MSP", "cc", "1.0", 1)
        cycle.approve_for_org(
            "Org2MSP", "cc", "1.0", 1, endorsement_policy="OR('Org2MSP.peer')"
        )
        with pytest.raises(ConfigError):
            cycle.commit("cc")

    def test_unknown_org_rejected(self, lifecycle):
        cycle, _ = lifecycle
        with pytest.raises(ConfigError, match="unknown organization"):
            cycle.approve_for_org("MalloryMSP", "cc", "1.0", 1)

    def test_wrong_sequence_rejected(self, lifecycle):
        cycle, _ = lifecycle
        with pytest.raises(ConfigError, match="sequence"):
            cycle.approve_for_org("Org1MSP", "cc", "1.0", 5)

    def test_readiness_of_unknown_chaincode(self, lifecycle):
        cycle, _ = lifecycle
        with pytest.raises(ConfigError):
            cycle.check_commit_readiness("ghost")


class TestUpgrade:
    def test_upgrade_replaces_definition(self, lifecycle):
        cycle, channel = lifecycle
        for msp in ("Org1MSP", "Org2MSP"):
            cycle.approve_for_org(msp, "cc", "1.0", 1)
        cycle.commit("cc")
        assert channel.chaincode("cc").collections == ()

        for msp in ("Org1MSP", "Org3MSP"):
            cycle.approve_for_org(msp, "cc", "2.0", 2, collections=[COLLECTION])
        cycle.commit("cc")
        assert channel.chaincode("cc").collection("PDC1").name == "PDC1"
        assert cycle.committed_sequence("cc") == 2

    def test_upgrade_requires_next_sequence(self, lifecycle):
        cycle, _ = lifecycle
        for msp in ("Org1MSP", "Org2MSP"):
            cycle.approve_for_org(msp, "cc", "1.0", 1)
        cycle.commit("cc")
        with pytest.raises(ConfigError, match="sequence 2"):
            cycle.approve_for_org("Org1MSP", "cc", "2.0", 1)

    def test_committed_definition_transacts(self, lifecycle):
        """A lifecycle-committed chaincode works end-to-end."""
        from repro.chaincode.contracts import PrivateAssetContract
        from repro.network.network import FabricNetwork

        cycle, channel = lifecycle
        for msp in ("Org1MSP", "Org2MSP", "Org3MSP"):
            cycle.approve_for_org(msp, "pdccc", "1.0", 1, collections=[
                CollectionConfig(
                    name="PDC1",
                    policy="OR('Org1MSP.member', 'Org2MSP.member')",
                    required_peer_count=0,
                )
            ])
        cycle.commit("pdccc")
        net = FabricNetwork(channel=channel)
        peers = [net.add_peer(f"Org{i}MSP") for i in (1, 2, 3)]
        net.install_chaincode("pdccc", PrivateAssetContract())
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"}, endorsing_peers=peers[:2],
        ).raise_for_status()
        assert peers[1].query_private("pdccc", "PDC1", "k") == b"v"
