"""Tests that the traced pipeline reproduces the Fig. 2 sequence."""

from __future__ import annotations

import functools

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.common.tracing import Tracer
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.simulation import harness
from repro.simulation.config import SimulationConfig


@pytest.fixture
def traced_network():
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="traced", organizations=orgs)
    channel.deploy_chaincode("assetcc")
    channel.deploy_chaincode(
        "pdccc",
        collections=[
            CollectionConfig(
                name="PDC1",
                policy="OR('Org1MSP.member', 'Org2MSP.member')",
                required_peer_count=0,
            )
        ],
    )
    tracer = Tracer()
    net = FabricNetwork(channel=channel, tracer=tracer)
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    net.install_chaincode("pdccc", PrivateAssetContract())
    return net, tracer


class TestFig2Sequence:
    def test_public_transaction_sequence(self, traced_network):
        """Fig. 2 workflow (I): steps 1-6 and 10-21, no gossip."""
        net, tracer = traced_network
        endorsers = net.default_endorsers()[:2]
        result = net.client("Org1MSP").submit_transaction(
            "assetcc", "create_asset", ["a", "1"], endorsing_peers=endorsers
        )
        result.raise_for_status()
        actions = [e.action for e in tracer.for_tx(result.tx_id)]
        assert actions == [
            "send-proposal", "simulate+endorse",       # endorser 1
            "send-proposal", "simulate+endorse",       # endorser 2
            "assemble+submit",                          # client -> orderer
            "enqueue-envelope",                         # orderer inbox
            "validate+commit", "validate+commit", "validate+commit",  # 3 peers
        ]
        assert "gossip-private-rwset" not in actions

    def test_private_transaction_sequence_includes_gossip(self, traced_network):
        """Fig. 2 workflow (II): the dissemination steps 7-9 appear."""
        net, tracer = traced_network
        endorsers = net.default_endorsers()[:2]
        result = net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"}, endorsing_peers=endorsers,
        )
        result.raise_for_status()
        actions = [e.action for e in tracer.for_tx(result.tx_id)]
        assert actions == [
            "send-proposal", "simulate+endorse", "gossip-private-rwset",
            "send-proposal", "simulate+endorse", "gossip-private-rwset",
            "assemble+submit", "enqueue-envelope",
            "validate+commit", "validate+commit", "validate+commit",
        ]

    def test_gossip_precedes_ordering(self, traced_network):
        """Dissemination happens in the execution phase, before ordering
        (steps 7-9 come before step 10 in Fig. 2)."""
        net, tracer = traced_network
        result = net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k2"],
            transient={"value": b"v"}, endorsing_peers=net.default_endorsers()[:2],
        )
        actions = [e.action for e in tracer.for_tx(result.tx_id)]
        assert actions.index("gossip-private-rwset") < actions.index("assemble+submit")

    def test_validation_flags_recorded(self, traced_network):
        net, tracer = traced_network
        result = net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"},
            endorsing_peers=[net.default_peer_for("Org1MSP")],  # fails MAJORITY
        )
        commits = [e for e in tracer.for_tx(result.tx_id) if e.action == "validate+commit"]
        assert len(commits) == 3
        assert all(e.detail["flag"] == "ENDORSEMENT_POLICY_FAILURE" for e in commits)

    def test_render_and_clear(self, traced_network):
        net, tracer = traced_network
        net.client("Org1MSP").submit_transaction(
            "assetcc", "create_asset", ["a", "1"],
            endorsing_peers=net.default_endorsers()[:2],
        )
        rendered = tracer.render()
        assert "send-proposal" in rendered and "assemble+submit" in rendered
        tracer.clear()
        assert tracer.events == []

    def test_untraced_network_records_nothing(self, network):
        assert network.tracer is None  # default fixture runs untraced

    def test_summary_aggregates_action_counts(self, traced_network):
        net, tracer = traced_network
        endorsers = net.default_endorsers()[:2]
        for i in range(3):
            net.client("Org1MSP").submit_transaction(
                "assetcc", "create_asset", [f"s{i}", "1"], endorsing_peers=endorsers
            ).raise_for_status()
        summary = tracer.summary()
        assert summary["send-proposal"] == 6       # 3 txs x 2 endorsers
        assert summary["simulate+endorse"] == 6
        assert summary["assemble+submit"] == 3
        assert summary["validate+commit"] == 9     # 3 txs x 3 peers
        assert sum(summary.values()) == len(tracer.events)
        tracer.clear()
        assert tracer.summary() == {}


class TestObservationChangesNoState:
    """A tracer on the network records; it never changes what commits."""

    # Seed 19's schedule crashes and restarts peers, early-aborts,
    # bootstraps from a snapshot over a pruned backlog and catches up.
    CONFIG = SimulationConfig(
        seed=19, ops=30, org_count=5, peers_per_org=2,
        pdc1_members=("Org1MSP", "Org2MSP", "Org3MSP"),
        pdc2_members=("Org2MSP", "Org3MSP", "Org4MSP"),
        workload="mixed", attack_weight=0.05, plan_rate=0.5,
        mean_gap=1.0, batch_size=5, batch_timeout=2.0, jitter=0.2,
        state_backend="wal", snapshot_every=3, prune=True,
        reorder=True, anti_entropy_every=2.0, fault_windows=3,
    )

    def _run(self, monkeypatch, tracer):
        """One seeded harness run; ``tracer`` (or None) rides the network."""
        built = []
        real_build = harness.build_network
        monkeypatch.setattr(
            harness, "FabricNetwork", functools.partial(FabricNetwork, tracer=tracer)
        )

        def build(config):
            built.append(real_build(config))
            return built[-1]

        monkeypatch.setattr(harness, "build_network", build)
        ops, faults = harness.generate(self.CONFIG)
        report = harness.execute(self.CONFIG, ops, faults)
        monkeypatch.undo()
        assert report.ok, [str(v) for v in report.violations[:3]]
        sim = built[-1]
        chains = {
            peer.name: [
                (v.block.header.block_hash(), tuple(f.value for f in v.flags))
                for v in peer.ledger.blockchain.all_blocks()
            ]
            for peer in sim.network.peers()
        }
        return report.stats, sim.network.runtime.scheduler.events_processed, chains

    def test_traced_run_matches_the_untraced_run(self, monkeypatch):
        stats, events, chains = self._run(monkeypatch, None)
        tracer = Tracer()
        traced_stats, traced_events, traced_chains = self._run(monkeypatch, tracer)
        # The schedule exercised every path the tracer hooks.
        assert stats["recoveries"] and stats["early_aborts"]
        assert stats["backlog_offset"] and stats["caught_up"]
        actions = tracer.summary()
        for action in ("validate+commit", "peer-crash", "peer-restart",
                       "early-abort", "peer-snapshot-bootstrap"):
            assert actions.get(action), action
        assert traced_stats["state_digest"] == stats["state_digest"]
        assert traced_events == events
        assert traced_chains == chains
