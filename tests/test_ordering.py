"""Tests for the block cutter and ordering service."""

from __future__ import annotations

import pytest

from repro.common.errors import OrderingError
from repro.identity.organization import Organization
from repro.ledger.block import Block
from repro.orderer.block_cutter import BlockCutter
from repro.orderer.service import OrderingService
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


class TestOrderingService:
    def test_delivers_blocks_in_sequence(self):
        service = OrderingService(cluster_size=3, batch_size=1)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        service.submit(_envelope("b"))
        assert [b.header.number for b in received] == [0, 1]

    def test_hash_chain_across_blocks(self):
        service = OrderingService(cluster_size=1, batch_size=1)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        service.submit(_envelope("b"))
        assert received[1].header.prev_hash == received[0].header.block_hash()

    def test_batching(self):
        service = OrderingService(cluster_size=1, batch_size=3)
        received: list[Block] = []
        service.register_delivery(received.append)
        for tag in "abc":
            service.submit(_envelope(tag))
        assert len(received) == 1 and len(received[0]) == 3

    def test_flush_cuts_partial_batch(self):
        service = OrderingService(cluster_size=1, batch_size=10)
        received: list[Block] = []
        service.register_delivery(received.append)
        service.submit(_envelope("a"))
        assert received == []
        service.flush()
        assert len(received) == 1

    def test_content_not_validated(self):
        """Orderers bundle blindly — garbage content still orders fine."""
        service = OrderingService(cluster_size=1, batch_size=1)
        received = []
        service.register_delivery(received.append)
        bogus = _envelope("bogus")  # unendorsed, signature b"sig"
        service.submit(bogus)
        assert len(received) == 1
        assert received[0].transactions[0].tx_id == bogus.tx_id

    def test_missing_txid_rejected(self):
        service = OrderingService(cluster_size=1, batch_size=1)
        from dataclasses import replace

        with pytest.raises(OrderingError):
            service.submit(replace(_envelope(), tx_id=""))

    def test_multiple_subscribers(self):
        service = OrderingService(cluster_size=1, batch_size=1)
        a, b = [], []
        service.register_delivery(a.append)
        service.register_delivery(b.append)
        service.submit(_envelope())
        assert len(a) == len(b) == 1

    def test_blocks_delivered_counter(self):
        service = OrderingService(cluster_size=1, batch_size=1)
        service.register_delivery(lambda block: None)
        service.submit(_envelope("x"))
        assert service.blocks_delivered == 1

    def test_raft_cluster_of_five(self):
        service = OrderingService(cluster_size=5, batch_size=1)
        received = []
        service.register_delivery(received.append)
        service.submit(_envelope())
        assert len(received) == 1
