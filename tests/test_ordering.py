"""Tests for the block cutter and ordering service."""

from __future__ import annotations

import pytest

from repro.common.errors import OrderingError
from repro.identity.organization import Organization
from repro.ledger.block import Block
from repro.orderer.block_cutter import BlockCutter
from repro.orderer.service import OrderingService
from repro.runtime import EventScheduler, FaultInjector, MessageBus
from repro.protocol.proposal import new_proposal
from repro.protocol.response import ChaincodeResponse, ProposalResponsePayload
from repro.protocol.transaction import TransactionEnvelope
from repro.chaincode.rwset import TxReadWriteSet


def _envelope(tag="t"):
    org = Organization("Org1MSP")
    client = org.enroll_client()
    proposal = new_proposal("ch", "cc", "fn", [tag], client.certificate)
    payload = ProposalResponsePayload(
        proposal_hash=proposal.proposal_hash(),
        results=TxReadWriteSet(),
        response=ChaincodeResponse(),
    )
    return TransactionEnvelope(
        tx_id=proposal.tx_id,
        channel_id="ch",
        chaincode_id="cc",
        creator=client.certificate,
        payload=payload,
        endorsements=(),
        signature=b"sig",
        function="fn",
        args=(tag,),
    )


class TestBlockCutter:
    def test_cut_on_batch_size(self):
        cutter = BlockCutter(batch_size=2)
        assert cutter.add(_envelope("1")) == []
        batches = cutter.add(_envelope("2"))
        assert len(batches) == 1 and len(batches[0]) == 2

    # The batch timeout is the runtime's scheduler timer, which flushes
    # the cutter: tests/test_runtime.py::TestPipelinedRuntime::
    # test_partial_batch_cut_by_timeout.

    def test_flush(self):
        cutter = BlockCutter(batch_size=10)
        cutter.add(_envelope())
        assert len(cutter.flush()[0]) == 1
        assert cutter.flush() == []

    def test_pending_count(self):
        cutter = BlockCutter(batch_size=10)
        cutter.add(_envelope())
        assert cutter.pending_count == 1


def _service(cluster_size=1, batch_size=1):
    """A service whose consenters sit on a fresh bus with a fault injector."""
    scheduler = EventScheduler(seed=0)
    service = OrderingService(cluster_size=cluster_size, batch_size=batch_size)
    service.attach(MessageBus(scheduler, faults=FaultInjector()))
    scheduler.run()  # the bootstrap election
    return service, scheduler


class TestOrderingService:
    def test_delivers_blocks_in_sequence(self):
        service, scheduler = _service(cluster_size=3)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        service.submit(_envelope("b"))
        scheduler.run()
        assert [b.header.number for b in received] == [0, 1]

    def test_hash_chain_across_blocks(self):
        service, _ = _service()
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        service.submit(_envelope("b"))
        assert received[1].header.prev_hash == received[0].header.block_hash()

    def test_batching(self):
        service, _ = _service(batch_size=3)
        received: list[Block] = []
        service.register_delivery(received.append)
        for tag in "abc":
            service.submit(_envelope(tag))
        assert len(received) == 1 and len(received[0]) == 3

    def test_flush_cuts_partial_batch(self):
        service, _ = _service(batch_size=10)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        assert received == []
        service.flush()
        assert len(received) == 1

    def test_content_not_validated(self):
        """Orderers bundle blindly — garbage content still orders fine."""
        service, _ = _service()
        received = []
        service.register_delivery(received.append)
        bogus = _envelope("bogus")  # unendorsed, signature b"sig"
        service.submit(bogus)
        assert len(received) == 1
        assert received[0].transactions[0].tx_id == bogus.tx_id

    def test_missing_txid_rejected(self):
        service, _ = _service()
        from dataclasses import replace

        with pytest.raises(OrderingError):
            service.submit(replace(_envelope(), tx_id=""))

    def test_multiple_subscribers(self):
        service, _ = _service()
        a, b = [], []
        service.register_delivery(a.append)
        service.register_delivery(b.append)
        service.submit(_envelope())
        assert len(a) == len(b) == 1

    def test_blocks_delivered_counter(self):
        service, _ = _service()
        service.register_delivery(lambda block: None)
        service.submit(_envelope("x"))
        assert service.blocks_delivered == 1

    def test_raft_cluster_of_five(self):
        service, scheduler = _service(cluster_size=5)
        received = []
        service.register_delivery(received.append)
        service.submit(_envelope())
        scheduler.run()
        assert len(received) == 1

    def test_zero_consenters_rejected(self):
        with pytest.raises(OrderingError):
            OrderingService(cluster_size=0)


class TestConsensusOnTheScheduler:
    """The service's guarantees when consensus takes scheduler events."""

    def test_two_cuts_at_one_instant_get_consecutive_numbers(self):
        """Numbers and prev_hash are fixed at propose time: two batches
        cut before either is replicated still chain 0 -> 1."""
        service, scheduler = _service(cluster_size=3)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        service.submit(_envelope("b"))
        assert service.proposed_count == 2 and received == []
        scheduler.run()
        assert [b.header.number for b in received] == [0, 1]
        assert received[1].header.prev_hash == received[0].header.block_hash()
        assert scheduler.now == 0.0

    def test_leader_crash_mid_replication_delivers_each_batch_once_in_order(self):
        """The leader replicates batch 0 to one follower only, then dies:
        the new leader holds it, gets it (and the later batches) proposed
        again, and every batch is delivered exactly once, in order."""
        service, scheduler = _service(cluster_size=5)
        received: list[Block] = []
        service.register_delivery(received.append)
        raft = service.raft
        leader = raft.leader()
        faults = raft.bus.faults
        cut = [n.endpoint for n in raft.nodes if n.node_id not in (leader.node_id, 1)]
        for dst in cut:
            faults.cut_link(leader.endpoint, dst)
        service.submit(_envelope("a"))
        scheduler.run_for(0.1)
        assert received == [] and raft.nodes[1].last_log_index() == 1
        raft.stop(leader.node_id)
        for dst in cut:
            faults.restore_link(leader.endpoint, dst)
        service.submit(_envelope("b"))  # cut while no leader exists
        scheduler.run()
        assert [b.header.number for b in received] == [0, 1]
        assert [b.transactions[0].args for b in received] == [("a",), ("b",)]
        assert raft.leader() is not None and raft.leader().node_id != leader.node_id
        assert service.delivered_count == service.proposed_count == 2

    def test_aborts_fire_after_the_block_is_delivered(self):
        """An early abort of a replicated batch fires from its commit
        callback, after the delivery handlers."""
        service, scheduler = _service(cluster_size=3)
        events = []
        service.register_delivery(lambda block: events.append(("block", block.header.number)))
        service.on_early_abort(lambda envelope, reason, block: events.append(("abort", block)))
        doomed = _envelope("doomed")

        class OneAbort:
            def process_batch(self, batch, next_block_number):
                return batch[:1], [(doomed, "conflict", next_block_number)]

        service._reorderer = OneAbort()
        service.submit(_envelope("a"))
        assert events == []
        scheduler.run()
        assert events == [("block", 0), ("abort", 0)]
