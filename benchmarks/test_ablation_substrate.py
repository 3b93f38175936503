"""Ablations over the substrate design choices DESIGN.md calls out.

* Gossip fan-out: dissemination cost vs ``MaxPeerCount``.
* Raft cluster size: ordering latency for 1 / 3 / 5 orderers.
* Crypto: ECDSA P-256 sign/verify unit cost (the dominant latency term).
"""

from __future__ import annotations

import time

import pytest

from repro.common.crypto import generate_keypair
from repro.network.presets import wide_member_network
from repro.orderer.raft import TOPIC_RAFT
from repro.orderer.service import OrderingService
from repro.runtime import EventScheduler, MessageBus

from _bench_utils import record


class TestGossipFanout:
    @pytest.mark.parametrize("max_peer_count", [0, 1, 2, 4])
    def test_push_count_tracks_fanout(self, max_peer_count):
        net = wide_member_network(max_peer_count).network
        endorsers = net.peers()[:3]
        net.client("Org1MSP").submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"v"}, endorsing_peers=endorsers,
        ).raise_for_status()
        expected = min(max_peer_count, 4) * 3  # per endorser, capped fanout
        assert net.gossip.pushes == expected

    def test_fanout_vs_durability(self, results_dir):
        """Higher fan-out costs pushes but leaves fewer reconciliation gaps."""
        lines = ["Ablation — gossip fan-out vs immediate durability (5 member orgs)",
                 f"{'MaxPeerCount':>12} {'pushes':>8} {'members missing data':>22}"]
        for max_peer_count in (0, 1, 2, 4):
            net = wide_member_network(max_peer_count).network
            net.client("Org1MSP").submit_transaction(
                "pdccc", "set_private", ["PDC1", "k"],
                transient={"value": b"v"}, endorsing_peers=net.peers()[:3],
            ).raise_for_status()
            missing = sum(1 for p in net.peers() if p.ledger.missing_private)
            lines.append(f"{max_peer_count:>12} {net.gossip.pushes:>8} {missing:>22}")
            # Reconciliation always repairs the gaps afterwards.
            net.reconcile_private_data()
            assert all(
                p.query_private("pdccc", "PDC1", "k") == b"v" for p in net.peers()
            )
        record(results_dir, "ablation_gossip_fanout", "\n".join(lines))


class TestRaftClusterSize:
    @pytest.mark.parametrize("cluster_size", [1, 3, 5])
    def test_ordering_latency_by_cluster(self, cluster_size, results_dir):
        from repro.identity.organization import Organization as Org
        from repro.protocol.proposal import new_proposal
        from repro.protocol.response import ChaincodeResponse, ProposalResponsePayload
        from repro.protocol.transaction import TransactionEnvelope
        from repro.chaincode.rwset import TxReadWriteSet

        org = Org("Org1MSP")
        client = org.enroll_client()

        def envelope(tag):
            proposal = new_proposal("ch", "cc", "fn", [tag], client.certificate)
            payload = ProposalResponsePayload(
                proposal_hash=proposal.proposal_hash(),
                results=TxReadWriteSet(),
                response=ChaincodeResponse(),
            )
            return TransactionEnvelope(
                tx_id=proposal.tx_id, channel_id="ch", chaincode_id="cc",
                creator=client.certificate, payload=payload, endorsements=(),
                signature=b"s", function="fn", args=(tag,),
            )

        if cluster_size == 1:  # first parametrization: start a fresh file
            (results_dir / "ablation_raft_cluster.txt").unlink(missing_ok=True)
        scheduler = EventScheduler(seed=0)
        bus = MessageBus(scheduler)
        service = OrderingService(cluster_size=cluster_size, batch_size=1)
        service.attach(bus)
        delivered = []
        service.register_delivery(delivered.append)
        start = time.perf_counter()
        for i in range(20):
            service.submit(envelope(str(i)))
            scheduler.run()
        elapsed_ms = (time.perf_counter() - start) * 1000 / 20
        assert len(delivered) == 20
        messages = bus.topic_counts.get(TOPIC_RAFT, 0)
        with open(results_dir / "ablation_raft_cluster.txt", "a", encoding="utf-8") as handle:
            handle.write(
                f"cluster={cluster_size}: {elapsed_ms:.3f} ms/block, "
                f"{messages} raft messages total\n"
            )


class TestCryptoUnitCost:
    def test_bench_sign(self, benchmark):
        private, _ = generate_keypair(b"bench")
        signature = benchmark(lambda: private.sign(b"message"))
        assert signature

    def test_bench_verify(self, benchmark):
        private, public = generate_keypair(b"bench")
        signature = private.sign(b"message")
        assert benchmark(lambda: public.verify(b"message", signature))

    def test_bench_keygen(self, benchmark):
        private, public = benchmark(lambda: generate_keypair(b"bench-keygen"))
        assert len(public.to_bytes()) == 33
